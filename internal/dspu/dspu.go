// Package dspu implements the Real-Valued Dynamical-System Processing Unit
// of paper Sec. III: a BRIM-derived machine whose circulative resistor rings
// replace the linear self-reaction with a quadratic one, letting capacitor
// voltages stabilize at real values instead of polarizing to the rails.
//
// A DSPU performs graph-learning inference by natural annealing: observed
// node voltages are clamped, unknown nodes evolve under the coupling
// currents, and the settled voltages are the predictions (Sec. III.C).
//
// The DSPU is the dense Backend of the shared inference engine
// (internal/engine): observation validation, clamp-plan caching, seeding,
// and batch fan-out live in the engine; this package supplies the node
// dynamics (the circuit network, its clamp-plan compilation, and the
// integration loop).
package dspu

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dsgl/internal/circuit"
	"dsgl/internal/engine"
	"dsgl/internal/mat"
	"dsgl/internal/ode"
	"dsgl/internal/rng"
)

// Config collects DSPU runtime parameters.
type Config struct {
	// Dt is the integration timestep in ns. Default 0.05.
	Dt float64
	// MaxTimeNs bounds one annealing run. Default 1000 ns.
	MaxTimeNs float64
	// SettleTol: the run stops early once max |dσ/dt| < SettleTol.
	// Default 1e-6 per ns.
	SettleTol float64
	// VRail bounds voltages. Default 1.
	VRail float64
	// Capacitance sets the node time constant. Default 1.
	Capacitance float64
	// Integrator defaults to forward Euler.
	Integrator ode.Integrator
	// Noise optionally injects node/coupler disturbances (Fig. 13).
	Noise *circuit.NoiseModel
	// Seed for unknown-node initialization.
	Seed uint64
}

func (c *Config) fillDefaults() {
	if c.Dt == 0 {
		c.Dt = 0.05
	}
	if c.MaxTimeNs == 0 {
		c.MaxTimeNs = 1000
	}
	if c.SettleTol == 0 {
		c.SettleTol = 1e-6
	}
	if c.VRail == 0 {
		c.VRail = 1
	}
	if c.Capacitance == 0 {
		c.Capacitance = 1
	}
	if c.Integrator == nil {
		c.Integrator = ode.NewEuler()
	}
}

// DSPU is a single real-valued dynamical-system processing unit holding a
// trained parameter set (J, h).
//
// Concurrency: inference entry points taking an InferState are safe to call
// from multiple goroutines with distinct states — each state carries its own
// clamp mask, coupling scratch, and integrator clone, and the network is
// only read. The exception is a configured noise model, whose RNG is shared:
// noisy inference must stay single-threaded. Infer (which advances the
// DSPU's internal RNG) and TraceRun (which sets the network clamp set) are
// also single-threaded by design.
type DSPU struct {
	N   int
	Net *circuit.Network
	cfg Config
	rng *rng.RNG

	// The engine is created lazily on first use, mirroring
	// scalable.Machine: tests may construct literals that never infer.
	engOnce sync.Once
	eng     *engine.Engine

	// Column→rows adjacency of J, built lazily on the first plan-delta
	// compile (plan.go).
	colRowsOnce sync.Once
	jColRows    [][]int32
}

// Engine returns the inference engine driving this DSPU, creating it on
// first use.
func (d *DSPU) Engine() *engine.Engine {
	d.engOnce.Do(func() { d.eng = engine.New(d) })
	return d.eng
}

// New builds a DSPU from trained parameters. j must be square with zero
// diagonal; every h_i must be strictly negative (the convexity condition
// enforced during training).
func New(j *mat.Dense, h []float64, cfg Config) (*DSPU, error) {
	cfg.fillDefaults()
	net, err := circuit.NewNetwork(j, h, circuit.Config{
		Self:        circuit.Quadratic,
		Capacitance: cfg.Capacitance,
		VRail:       cfg.VRail,
		Noise:       cfg.Noise,
	})
	if err != nil {
		return nil, err
	}
	return &DSPU{N: j.Rows, Net: net, cfg: cfg, rng: rng.New(cfg.Seed)}, nil
}

// NewCSR builds a DSPU from a sparse coupling matrix.
func NewCSR(j *mat.CSR, h []float64, cfg Config) (*DSPU, error) {
	cfg.fillDefaults()
	net, err := circuit.NewNetworkCSR(j, h, circuit.Config{
		Self:        circuit.Quadratic,
		Capacitance: cfg.Capacitance,
		VRail:       cfg.VRail,
		Noise:       cfg.Noise,
	})
	if err != nil {
		return nil, err
	}
	return &DSPU{N: j.Rows, Net: net, cfg: cfg, rng: rng.New(cfg.Seed)}, nil
}

// Result is the outcome of one inference (annealing) run; Energy is H_RV at
// the settled state.
type Result = engine.Result

// Observation fixes node Index at Value during inference.
type Observation = engine.Observation

// StepInfo is the per-step telemetry handed to a StepObserver; see
// engine.StepInfo. The dense path populates Step, TimeNs, the lazy H_RV
// EnergyFn, and X.
type StepInfo = engine.StepInfo

// StepObserver receives StepInfo after every integration step of an
// inference; see engine.StepObserver.
type StepObserver = engine.StepObserver

// InferState is a reusable scratch arena for DSPU inference; see
// engine.InferState. The dense-path buffers (derivative, folded bias,
// coupling scratch, per-state ODE systems, integrator clone) hang off the
// state's Scratch field, which is what makes concurrent inference on
// distinct states of one DSPU race-free.
type InferState = engine.InferState

// dscratch is the DSPU's backend arena inside an engine.InferState.
type dscratch struct {
	deriv    []float64
	bias     []float64 // folded constant coupling currents (plan path)
	coupling []float64 // per-evaluation coupling buffer, shared by both systems
	psys     planSys   // plan-path ode.System, bound per inference
	naive    naiveSys  // naive-path ode.System over the state's clamp mask
	integ    ode.Integrator
}

// naiveSys is the per-state naive reference system: the raw circuit network
// evaluated with the state's own clamp mask and coupling buffer, so two
// states of one DSPU never contend on network scratch (the historical
// ClampSet-on-the-shared-network race).
type naiveSys struct {
	nw      *circuit.Network
	clamped []bool
	buf     []float64
}

// Dim implements ode.System.
func (s *naiveSys) Dim() int { return s.nw.N }

// Derivative implements ode.System.
func (s *naiveSys) Derivative(t float64, x, dst []float64) {
	s.nw.DerivativeMasked(t, x, dst, s.clamped, s.buf)
}

// AttachState allocates the DSPU's scratch arena onto an engine state.
// Called once per InferState by engine.NewInferState.
func (d *DSPU) AttachState(st *InferState) {
	sc := &dscratch{
		deriv:    make([]float64, d.N),
		bias:     make([]float64, d.N),
		coupling: make([]float64, d.N),
		integ:    ode.Clone(d.cfg.Integrator),
	}
	sc.naive = naiveSys{nw: d.Net, clamped: st.Clamped, buf: sc.coupling}
	st.Scratch = sc
}

// Backend contract (engine.Backend): identity and bounds.

// Name prefixes error messages and names the backend in CLIs and reports.
func (d *DSPU) Name() string { return "dspu" }

// Dim is the state dimension.
func (d *DSPU) Dim() int { return d.N }

// Rails is the voltage rail bound observations must respect.
func (d *DSPU) Rails() float64 { return d.cfg.VRail }

// BaseSeed is the configured seed; window i of a batch runs with BaseSeed+i.
func (d *DSPU) BaseSeed() uint64 { return d.cfg.Seed }

// CompilePlan compiles the clamp pattern into a *clampPlan (see plan.go).
func (d *DSPU) CompilePlan(clamped []bool) any { return d.compilePlan(clamped) }

// The DSPU delta-compiles clamp plans for streaming inference (plan.go).
var _ engine.DeltaBackend = (*DSPU)(nil)

// RunPlanned runs the integration loop over the clamp-plan system.
func (d *DSPU) RunPlanned(st *InferState, plan any) (*Result, error) {
	sc := st.Scratch.(*dscratch)
	return d.annealLoop(st, sc, d.planSystem(st, sc, plan.(*clampPlan)))
}

// RunNaive runs the integration loop over the raw network (per-state mask).
func (d *DSPU) RunNaive(st *InferState) (*Result, error) {
	sc := st.Scratch.(*dscratch)
	return d.annealLoop(st, sc, &sc.naive)
}

// EnergyAt evaluates the real-valued Hamiltonian H_RV at state x.
func (d *DSPU) EnergyAt(x []float64) float64 { return d.Net.Energy(x) }

// EffectiveJ reconstructs the dense coupling matrix the network realizes —
// the counterpart of scalable.Machine.EffectiveJ for the single-PE dense
// backend. Construction converts the trained J to CSR dropping only exact
// zeros and keeping every surviving entry bit-exact, so EffectiveJ equals
// the constructor's J bit-for-bit; the lossless-realization and snapshot
// round-trip verify invariants compare against it.
func (d *DSPU) EffectiveJ() *mat.Dense { return d.Net.J.ToDense() }

// ClampedEnergyAt evaluates the conditional Hamiltonian of the free
// subsystem given the clamped nodes (the Lyapunov function of clamped
// annealing, mirroring scalable.Machine.ClampedEnergyAt): free-free
// couplings weigh 1/2, free-clamp couplings full weight (the clamped node
// is a boundary condition, not a co-descending coordinate), clamped rows
// dropped.
func (d *DSPU) ClampedEnergyAt(x []float64, clamped []bool) float64 {
	var e float64
	s := d.Net.J
	for i := 0; i < s.Rows; i++ {
		if clamped[i] {
			continue
		}
		xi := x[i]
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			w := 0.5
			if clamped[s.ColIdx[p]] {
				w = 1
			}
			e -= w * s.Val[p] * xi * x[s.ColIdx[p]]
		}
	}
	for i, h := range d.Net.H {
		if clamped[i] {
			continue
		}
		switch d.Net.Self {
		case circuit.Linear:
			e -= h * x[i]
		case circuit.Quadratic:
			e -= 0.5 * h * x[i] * x[i]
		}
	}
	return e
}

// ResidualAt evaluates the noise-free equilibrium residual max |dσ/dt| at
// state x, skipping nodes marked in clamped (nil = no node clamped).
func (d *DSPU) ResidualAt(x []float64, clamped []bool) (float64, error) {
	if len(x) != d.N {
		return 0, fmt.Errorf("dspu: state has %d entries, want %d", len(x), d.N)
	}
	if clamped == nil {
		clamped = make([]bool, d.N)
	} else if len(clamped) != d.N {
		return 0, fmt.Errorf("dspu: clamp mask has %d entries, want %d", len(clamped), d.N)
	}
	return d.Net.Residual(x, clamped, make([]float64, d.N)), nil
}

// SettleResidualTol is the residual bound a Settled result guarantees: the
// settle check stops the loop the moment the (deterministic) derivative
// norm falls below SettleTol, at the reported state.
func (d *DSPU) SettleResidualTol() float64 { return d.cfg.SettleTol }

// NewInferState allocates a scratch arena sized for this DSPU.
func (d *DSPU) NewInferState() *InferState { return d.Engine().NewInferState() }

// Infer clamps the observations, randomly initializes the free nodes, and
// anneals to equilibrium. It returns the settled state. Successive calls
// advance the DSPU's internal RNG, so repeated inferences explore different
// initializations; use InferWith / InferSeeded for explicit per-call
// seeding.
func (d *DSPU) Infer(obs []Observation) (*Result, error) {
	x := make([]float64, d.N)
	d.rng.FillUniform(x, -0.1, 0.1)
	return d.InferFrom(x, obs)
}

// InferFrom is Infer with an explicit initial state for the free nodes.
func (d *DSPU) InferFrom(x0 []float64, obs []Observation) (*Result, error) {
	return d.Engine().InferFrom(x0, obs)
}

// InferSeeded anneals with an explicit seed for free-node initialization,
// allocating a fresh state per call.
func (d *DSPU) InferSeeded(obs []Observation, seed uint64) (*Result, error) {
	return d.Engine().InferSeeded(obs, seed)
}

// InferWith runs one inference on a reusable scratch state, seeding the
// free-node initialization from seed (independent of the DSPU's internal
// RNG stream). After the state's first use the call performs zero heap
// allocations; the returned Result aliases the state's buffers.
func (d *DSPU) InferWith(st *InferState, obs []Observation, seed uint64) (*Result, error) {
	return d.Engine().InferWith(st, obs, seed)
}

// InferWithNaive is InferWith running the naive reference anneal: the raw
// network, no clamp plan. The plan path must match it bit for bit.
func (d *DSPU) InferWithNaive(st *InferState, obs []Observation, seed uint64) (*Result, error) {
	return d.Engine().InferWithNaive(st, obs, seed)
}

// InferSeededNaive is InferSeeded running the naive reference anneal.
func (d *DSPU) InferSeededNaive(obs []Observation, seed uint64) (*Result, error) {
	return d.Engine().InferSeededNaive(obs, seed)
}

// InferBatch anneals every observation set across a worker pool, one private
// InferState per worker; window i is seeded Config.Seed + i, bit-identical
// to a sequential loop for any worker count. Requires a noise-free
// configuration (the noise RNG is shared across states).
func (d *DSPU) InferBatch(obs [][]Observation, workers int) ([]*Result, error) {
	return d.Engine().InferBatch(obs, workers)
}

// EnsurePlan validates the observation set and pre-compiles (or re-warms)
// the clamp plan for its index pattern.
func (d *DSPU) EnsurePlan(obs []Observation) error {
	return d.Engine().EnsurePlan(obs)
}

// PlanCacheStats reports the cumulative clamp-plan cache hit and miss
// counts.
func (d *DSPU) PlanCacheStats() (hits, misses uint64) {
	return d.Engine().PlanCacheStats()
}

// annealLoop is the integration loop proper, parameterized over the system
// evaluated each step — the per-state naive network view (naive path) or
// its clamp-plan compilation (planSys). Everything outside the Derivative
// evaluation is shared, so the two paths can only differ through the
// derivative values, which the plan construction makes bit-identical.
func (d *DSPU) annealLoop(st *InferState, sc *dscratch, sys ode.System) (*Result, error) {
	x := st.X
	deriv := sc.deriv
	steps := int(d.cfg.MaxTimeNs / d.cfg.Dt)
	if steps < 1 {
		return nil, errors.New("dspu: MaxTimeNs shorter than one timestep")
	}
	t := 0.0
	settled := false
	lastResidual := math.NaN()
	taken := 0
	for s := 0; s < steps; s++ {
		t = sc.integ.Step(sys, t, d.cfg.Dt, x)
		d.Net.ClampRails(x)
		// A free voltage below mat.MinNormal is stored as 0; observations
		// are never rewritten.
		for i, c := range st.Clamped {
			if !c && math.Abs(x[i]) < mat.MinNormal {
				x[i] = 0
			}
		}
		taken = s + 1
		if st.Observer != nil {
			st.Observer(StepInfo{Step: s, TimeNs: t, EnergyFn: st.EnergyFn, X: x})
		}
		// Convergence check every few steps to keep the hot loop tight.
		// Each checked derivative norm is captured as lastResidual so the
		// Result reports the equilibrium residual at convergence.
		if s%8 == 7 {
			sys.Derivative(t, x, deriv)
			lastResidual = mat.NormInf(deriv)
			if lastResidual < d.cfg.SettleTol {
				settled = true
				break
			}
		}
	}
	st.Res = Result{
		Voltage:   x,
		LatencyNs: t,
		AnnealNs:  t,
		Steps:     taken,
		Settled:   settled,
		Energy:    d.Net.Energy(x),
		Residual:  lastResidual,
	}
	return &st.Res, nil
}

// Trace records a voltage trajectory: one sample of the full state per
// SampleEveryNs of simulated time. Used by the Fig. 4 circuit validation.
type Trace struct {
	TimesNs []float64
	States  [][]float64 // States[k][i] = voltage of node i at TimesNs[k]
}

// TraceRun integrates for durationNs from x0 with the given observations
// clamped, sampling the state every sampleEveryNs. TraceRun drives the
// network directly (it sets the shared clamp set) and is single-threaded.
func (d *DSPU) TraceRun(x0 []float64, obs []Observation, durationNs, sampleEveryNs float64) (*Trace, error) {
	if len(x0) != d.N {
		return nil, fmt.Errorf("dspu: initial state has %d entries, want %d", len(x0), d.N)
	}
	x := mat.CopyVec(x0)
	clamped := make([]int, 0, len(obs))
	for _, o := range obs {
		x[o.Index] = o.Value
		clamped = append(clamped, o.Index)
	}
	d.Net.ClampSet(clamped)

	tr := &Trace{}
	nextSample := 0.0
	t := 0.0
	steps := int(durationNs / d.cfg.Dt)
	record := func() {
		tr.TimesNs = append(tr.TimesNs, t)
		tr.States = append(tr.States, mat.CopyVec(x))
	}
	record()
	nextSample += sampleEveryNs
	for s := 0; s < steps; s++ {
		t = d.cfg.Integrator.Step(d.Net, t, d.cfg.Dt, x)
		d.Net.ClampRails(x)
		if t+1e-12 >= nextSample {
			record()
			nextSample += sampleEveryNs
		}
	}
	return tr, nil
}

// Energy evaluates the real-valued Hamiltonian H_RV at state x.
func (d *DSPU) Energy(x []float64) float64 { return d.Net.Energy(x) }

// Config returns the (defaults-filled) runtime configuration.
func (d *DSPU) Config() Config { return d.cfg }
