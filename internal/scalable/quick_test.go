package scalable

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"dsgl/internal/community"
	"dsgl/internal/mat"
	"dsgl/internal/pattern"
	"dsgl/internal/rng"
	"dsgl/internal/train"
)

// quickSystem builds a random pattern-legal system for property tests.
func quickSystem(seed uint64) (*train.Params, *community.Assignment, *mat.Bool) {
	r := rng.New(seed)
	gw := 2 + int(seed%2)
	gh := 2
	cap := 3 + int(seed%4)
	n := gw * gh * cap
	a := &community.Assignment{
		PEOf: make([]int, n), NodesOf: make([][]int, gw*gh),
		GridW: gw, GridH: gh, Capacity: cap,
	}
	for i := 0; i < n; i++ {
		pe := i / cap
		a.PEOf[i] = pe
		a.NodesOf[pe] = append(a.NodesOf[pe], i)
	}
	j := mat.NewDense(n, n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			if x != y && r.Float64() < 0.4 {
				j.Set(x, y, r.NormScaled(0, 0.1))
			}
		}
	}
	mask, _ := pattern.BuildMask(a, j, pattern.Config{Kind: pattern.DMesh, Wormholes: 2})
	j.ApplyMask(mask)
	h := make([]float64, n)
	for i := range h {
		h[i] = -1 - r.Float64()
	}
	return &train.Params{J: j, H: h}, a, mask
}

// TestQuickEffectiveJAlwaysPreserved: whatever the lane budget, a
// temporal-capable build realizes exactly the trained coupling matrix.
func TestQuickEffectiveJAlwaysPreserved(t *testing.T) {
	f := func(seed uint64) bool {
		p, a, mask := quickSystem(seed)
		lanes := 1 + int(seed%5)
		m, err := Build(p, a, mask, Config{Lanes: lanes})
		if err != nil {
			return false
		}
		return m.EffectiveJ().Equal(p.J, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRoundsConsistentWithDemand: pure spatial mode iff the maximum
// portal demand fits in the lane budget.
func TestQuickRoundsConsistentWithDemand(t *testing.T) {
	f := func(seed uint64) bool {
		p, a, mask := quickSystem(seed)
		lanes := 1 + int(seed%8)
		m, err := Build(p, a, mask, Config{Lanes: lanes})
		if err != nil {
			return false
		}
		st := m.Stats()
		if st.MaxPortalDemand <= lanes && st.Rounds != 1 {
			return false
		}
		if st.Rounds == 1 && st.Mode != ModeSpatial {
			return false
		}
		if st.Rounds > 1 && st.Mode != ModeTemporalSpatial {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInferenceStaysOnRails: voltages never exceed the rails and
// clamped nodes never move, for random systems and observations.
func TestQuickInferenceStaysOnRails(t *testing.T) {
	f := func(seed uint64) bool {
		p, a, mask := quickSystem(seed)
		m, err := Build(p, a, mask, Config{Lanes: 2, MaxTimeNs: 300, Seed: seed})
		if err != nil {
			return false
		}
		r := rng.New(seed ^ 0x55)
		obs := []Observation{
			{Index: r.Intn(p.Dim()), Value: r.Uniform(-0.9, 0.9)},
		}
		res, err := m.Infer(obs)
		if err != nil {
			return false
		}
		for i, v := range res.Voltage {
			if math.Abs(v) > 1+1e-12 {
				return false
			}
			if i == obs[0].Index && v != obs[0].Value {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPlannedMatchesNaive: on random small machines with some coupling
// rows emptied, and for an all-free mask, an all-but-one-clamped mask and a
// random mask, the clamp-plan loop returns every Result field and voltage
// bit-equal to the naive loop — on a cold run, and on a warm stream tick
// whose shifted mask runs through a delta-patched plan (replayed through the
// naive loop from the same warm state).
func TestQuickPlannedMatchesNaive(t *testing.T) {
	f := func(seed uint64) bool {
		p, a, mask := quickSystem(seed)
		r := rng.New(seed ^ 0x9e3779b9)
		n := p.Dim()
		for i := 0; i < n; i++ {
			if r.Float64() < 0.2 { // an input-node shaped row: nothing couples in
				for c := 0; c < n; c++ {
					p.J.Set(i, c, 0)
				}
			}
		}
		cfg := Config{Lanes: 1 + int(seed%4), MaxTimeNs: 300, Seed: seed}
		if seed%3 == 0 {
			cfg.NodeNoise, cfg.CouplerNoise = 0.02, 0.02
		}
		observe := func(clamped []bool) []Observation {
			var obs []Observation
			for i, c := range clamped {
				if c {
					obs = append(obs, Observation{Index: i, Value: r.Uniform(-0.9, 0.9)})
				}
			}
			return obs
		}
		allButOne := make([]bool, n)
		for i := range allButOne {
			allButOne[i] = true
		}
		allButOne[r.Intn(n)] = false
		random := make([]bool, n)
		for i := range random {
			random[i] = r.Float64() < 0.5
		}
		for _, base := range [][]bool{make([]bool, n), allButOne, random} {
			m, err := Build(p, a, mask, cfg)
			if err != nil {
				t.Fatal(err)
			}
			obs := observe(base)
			coldSeed := r.Uint64()
			plan, err := m.InferSeeded(obs, coldSeed)
			if err != nil {
				t.Fatal(err)
			}
			naive, err := m.InferSeededNaive(obs, coldSeed)
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, "cold", plan, naive)

			// Warm tick: flip one to three mask bits so the plan is patched
			// from the previous tick's, not compiled afresh.
			s := m.Engine().OpenStream()
			res, err := s.Tick(obs, 1)
			if err != nil {
				t.Fatal(err)
			}
			prev := append([]float64(nil), res.Voltage...)
			shifted := append([]bool(nil), base...)
			for k := 1 + r.Intn(3); k > 0; k-- {
				i := r.Intn(n)
				shifted[i] = !shifted[i]
			}
			if slices.Equal(shifted, base) {
				shifted[0] = !shifted[0]
			}
			tickObs := observe(shifted)
			hits, _ := m.Engine().PlanDeltaStats()
			warm, err := s.Tick(tickObs, 2)
			if err != nil {
				t.Fatal(err)
			}
			if h, _ := m.Engine().PlanDeltaStats(); h != hits+1 {
				t.Fatalf("seed %d: warm tick did not run a delta-patched plan", seed)
			}
			st := m.NewInferState()
			copy(st.X, prev)
			for _, o := range tickObs {
				st.X[o.Index] = o.Value
				st.ClampIdx = append(st.ClampIdx, o.Index)
			}
			copy(st.Clamped, shifted)
			st.RNG.Reseed(2)
			st.WarmStart = true
			replay, err := m.RunNaive(st)
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, "warm tick", warm, replay)
			s.Close()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
