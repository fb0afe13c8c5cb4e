package dspu

import (
	"math"
	"testing"

	"dsgl/internal/mat"
	"dsgl/internal/ode"
)

// flushDSPU is a 6-node chain whose last node has an empty coupling row
// and H = -1, so it only decays (×0.9 per step at Dt 0.1) while node 4
// still reads it. The settle tolerance is out of reach, so a run takes the
// whole 8000-step budget and the node passes below the smallest normal
// float64 on the way.
func flushDSPU(t *testing.T, integ ode.Integrator) *DSPU {
	t.Helper()
	const n = 6
	j := mat.NewDense(n, n)
	for i := 0; i+1 < n-1; i++ {
		j.Set(i, i+1, 0.3)
		j.Set(i+1, i, 0.3)
	}
	j.Set(n-2, n-1, 0.3)
	h := make([]float64, n)
	for i := range h {
		h[i] = -1
	}
	d, err := New(j, h, Config{Dt: 0.1, MaxTimeNs: 800, SettleTol: 1e-300, Seed: 3, Integrator: integ})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestAnnealFlushesSubnormals: the uncoupled free node ends at exactly 0 on
// the naive and planned paths, which stay bit-equal, through a cold run
// and warm stream ticks; a clamped subnormal observation comes back
// untouched, and is flushed once the node is freed again.
func TestAnnealFlushesSubnormals(t *testing.T) {
	for _, integ := range []struct {
		name string
		mk   func() ode.Integrator
	}{
		{"euler", func() ode.Integrator { return ode.NewEuler() }},
		{"rk4", func() ode.Integrator { return ode.NewRK4() }},
	} {
		t.Run(integ.name, func(t *testing.T) {
			d := flushDSPU(t, integ.mk())
			const node, sub = 5, 3e-320
			free := []Observation{{Index: 0, Value: 0.5}}
			clamped := []Observation{{Index: 0, Value: 0.5}, {Index: node, Value: sub}}
			ticks := [][]Observation{free, free, clamped, free}

			s := d.Engine().OpenStream()
			defer s.Close()
			prev := make([]float64, d.N)
			for k, obs := range ticks {
				seed := uint64(10 + k)
				res, err := s.Tick(obs, seed)
				if err != nil {
					t.Fatal(err)
				}
				if res.Steps <= 7000 {
					t.Fatalf("tick %d took %d steps, want > 7000", k, res.Steps)
				}
				// Replay the tick through the naive loop from the same start.
				st := d.NewInferState()
				st.RNG.Reseed(seed)
				if k == 0 {
					st.RNG.FillUniform(st.X, -0.1, 0.1)
				} else {
					copy(st.X, prev)
				}
				for _, o := range obs {
					st.X[o.Index] = o.Value
					st.Clamped[o.Index] = true
					st.ClampIdx = append(st.ClampIdx, o.Index)
				}
				naive, err := d.RunNaive(st)
				if err != nil {
					t.Fatal(err)
				}
				identicalResults(t, integ.name, res, naive)
				for i, v := range res.Voltage {
					if !st.Clamped[i] && v != 0 && math.Abs(v) < mat.MinNormal {
						t.Fatalf("tick %d: free node %d holds subnormal %g", k, i, v)
					}
				}
				got := res.Voltage[node]
				if len(obs) == len(clamped) {
					if math.Float64bits(got) != math.Float64bits(sub) {
						t.Fatalf("tick %d: clamped observation %g came back as %g", k, sub, got)
					}
				} else if math.Float64bits(got) != 0 {
					t.Fatalf("tick %d: uncoupled free node ends at %g, want +0", k, got)
				}
				copy(prev, res.Voltage)
			}
		})
	}
}
