package scalable

import (
	"math"
	"testing"

	"dsgl/internal/mat"
)

// flushNode is the node whose coupling row flushSystem empties.
const flushNode = 20

// flushMachine builds shardSystem with node flushNode's coupling row
// emptied: a node that only decays (H = -1), as a model's input nodes do
// when a sliding clamp mask leaves them free, while other nodes' rows
// still read it. The settle tolerance is out of reach, so a cold run
// takes the whole 8000-step budget and the node's voltage passes below
// the smallest normal float64 on the way (×0.9 per step).
func flushMachine(t *testing.T) *Machine {
	t.Helper()
	p, a, mask := shardSystem(t, 5)
	for c := 0; c < p.J.Cols; c++ {
		p.J.Set(flushNode, c, 0)
	}
	readers := 0
	for r := 0; r < p.J.Rows; r++ {
		if p.J.At(r, flushNode) != 0 {
			readers++
		}
	}
	if readers == 0 {
		t.Fatalf("no coupling reads node %d", flushNode)
	}
	m, err := Build(p, a, mask, Config{
		Lanes: 3, Seed: 11, ShardWorkers: 4, MaxTimeNs: 800, SettleTol: 1e-300,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats().Rounds < 2 || m.ShardCount() < 2 {
		t.Fatalf("want a temporal, sharded machine: rounds %d, shards %d", m.Stats().Rounds, m.ShardCount())
	}
	return m
}

// noFreeSubnormal fails when a node not marked in clamped ends with a
// subnormal voltage.
func noFreeSubnormal(t *testing.T, label string, res *Result, clamped []bool) {
	t.Helper()
	for i, v := range res.Voltage {
		if !clamped[i] && v != 0 && math.Abs(v) < mat.MinNormal {
			t.Fatalf("%s: free node %d holds subnormal %g", label, i, v)
		}
	}
}

// sameResult is identicalResults plus the step count and residual.
func sameResult(t *testing.T, label string, plan, naive *Result) {
	t.Helper()
	identicalResults(t, label, plan, naive)
	if plan.Steps != naive.Steps {
		t.Fatalf("%s: steps %d vs %d", label, plan.Steps, naive.Steps)
	}
	if math.Float64bits(plan.Residual) != math.Float64bits(naive.Residual) {
		t.Fatalf("%s: residual %v vs %v", label, plan.Residual, naive.Residual)
	}
}

func clampMask(n int, obs []Observation) []bool {
	c := make([]bool, n)
	for _, o := range obs {
		c[o.Index] = true
	}
	return c
}

// TestColdAnnealFlushesSubnormals: after a cold anneal long enough for the
// uncoupled node to decay past the normal range, the naive, planned and
// sharded paths all hold it at exactly 0, and naive and planned stay
// bit-equal.
func TestColdAnnealFlushesSubnormals(t *testing.T) {
	m := flushMachine(t)
	clamped := clampMask(m.N, shardObs)
	for _, seed := range []uint64{1, 7} {
		plan, err := m.InferSeeded(shardObs, seed)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Steps <= 7000 {
			t.Fatalf("seed %d: cold run took %d steps, want > 7000", seed, plan.Steps)
		}
		naive, err := m.InferSeededNaive(shardObs, seed)
		if err != nil {
			t.Fatal(err)
		}
		sharded, err := m.InferShardedSeeded(shardObs, seed)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "cold", plan, naive)
		for _, r := range []struct {
			label string
			res   *Result
		}{{"planned", plan}, {"naive", naive}, {"sharded", sharded}} {
			noFreeSubnormal(t, r.label, r.res, clamped)
			if v := r.res.Voltage[flushNode]; math.Float64bits(v) != 0 {
				t.Fatalf("seed %d %s: uncoupled node ends at %g, want +0", seed, r.label, v)
			}
		}
	}
}

// TestStreamTicksFlushSubnormals runs a stream session whose ticks free,
// clamp and free again the uncoupled node, replaying every warm tick
// through the naive loop from the same warm state. A clamped subnormal
// observation must come back untouched; once freed, the node is flushed.
func TestStreamTicksFlushSubnormals(t *testing.T) {
	m := flushMachine(t)
	const sub = -1e-310 // a subnormal observation
	withNode := append(append([]Observation(nil), shardObs...), Observation{Index: flushNode, Value: sub})
	shifted := append([]Observation(nil), shardObs[:len(shardObs)-1]...)
	ticks := [][]Observation{shardObs, shardObs, withNode, withNode, shardObs, shifted, shardObs}

	s := m.Engine().OpenStream()
	defer s.Close()
	prev := make([]float64, m.N)
	for k, obs := range ticks {
		seed := uint64(100 + k)
		res, err := s.Tick(obs, seed)
		if err != nil {
			t.Fatal(err)
		}
		clamped := clampMask(m.N, obs)
		noFreeSubnormal(t, "stream tick", res, clamped)
		if clamped[flushNode] {
			if got := res.Voltage[flushNode]; math.Float64bits(got) != math.Float64bits(sub) {
				t.Fatalf("tick %d: clamped observation %g came back as %g", k, sub, got)
			}
		}
		if k > 0 {
			// Replay the warm tick through the naive loop.
			st := m.NewInferState()
			copy(st.X, prev)
			for _, o := range obs {
				st.X[o.Index] = o.Value
				st.ClampIdx = append(st.ClampIdx, o.Index)
			}
			copy(st.Clamped, clamped)
			st.RNG.Reseed(seed)
			st.WarmStart = true
			naive, err := m.RunNaive(st)
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, "warm tick", res, naive)
		}
		copy(prev, res.Voltage)
	}
}
