// Clamp-aware compiled inference plans.
//
// During clamped inference the observed nodes' voltages never change, so
// every coupling-matrix row whose stored columns are all observed evaluates
// to the same number on every integration step. A clampPlan is the
// compilation of that observation — of the observation INDEX pattern, never
// the values — into a form the anneal hot loop can exploit:
//
//   - rows of each coupling matrix are classified once: a row whose columns
//     are all clamped becomes part of the "static" matrix and is folded into
//     a per-row constant bias computed once per inference; a row with at
//     least one free column stays in the "dyn" matrix and is re-evaluated
//     each step; a clamped row is dropped entirely (its output feeds a node
//     whose derivative is pinned to zero);
//   - the derivative, integration, and settle loops iterate a free-node
//     index list instead of scanning and skipping the clamp mask.
//
// Plans are compiled on demand by the shared inference engine
// (internal/engine), which caches them by packed clamp-mask key in a
// bounded LRU; this file supplies only the compilation and the planned hot
// loop.
//
// Bit-exactness is the design constraint, not an accident. The plan path
// must return Results bit-identical to the naive loop (the sixth
// verification invariant), which IEEE-754 non-associativity makes a strict
// discipline:
//
//   - a "dyn" row keeps the FULL original row — including its clamped
//     columns — so its per-step accumulation order is exactly the naive
//     order. Partial folding of a mixed row would reassociate the sum.
//   - a "static" row's folded bias is computed by the same
//     start-at-zero, in-row-order accumulation the naive loop runs, so the
//     hoisted value is the bit pattern the naive loop recomputes each step.
//   - mat.CSR.MulVecAdd starts each row's accumulation literally at the
//     bias (no spurious +0 terms), and the bias is exactly +0 for dyn rows,
//     so the fused kernel reproduces both row classes' naive bit patterns.
//   - the sample-and-hold interSum update keeps the naive two-op
//     subtract-then-add sequence per refresh: skipping a "constant"
//     refresh would be observable, since a-c+c need not round-trip to a.
//   - noise draws happen per free node in ascending order in both paths,
//     so the RNG streams stay aligned.
//   - a free node's voltage of magnitude below mat.MinNormal is stored as
//     exactly 0 right after the rail clamp, in every loop (naive, planned,
//     sharded). The rule is i-local and reads only x[i], so it cannot make
//     the paths differ, and it never touches a clamped node. It exists for
//     input nodes: their coupling rows are empty, so when a sliding stream
//     mask leaves one free its voltage only decays, and it would otherwise
//     stop at a subnormal (~±2e-323) that every coupling reading it pays
//     the CPU's slow path to multiply.
package scalable

import (
	"math"

	"dsgl/internal/mat"
)

// planMat is one coupling matrix compiled against a clamp pattern.
type planMat struct {
	// static holds the free rows whose stored columns are all clamped:
	// each is a constant for the whole inference, folded into a bias by
	// MulVec once per inference.
	static *mat.CSR
	// dyn holds the free rows with at least one free column, each kept as
	// the FULL original row so per-step accumulation order — and therefore
	// every rounding step — matches the naive loop exactly.
	dyn *mat.CSR
}

// clampPlan is a compiled inference plan for one observation index pattern.
// A plan is immutable after compilation and shared freely across InferBatch
// workers; all per-inference mutable state (the folded biases) lives in the
// InferState's scratch arena.
type clampPlan struct {
	freeIdx  []int // unclamped node indices, ascending
	clampIdx []int // clamped node indices, ascending
	intra    planMat
	phases   []planMat
}

// compilePlan classifies every coupling matrix row against the clamp
// pattern and builds the free/clamped index lists.
func (m *Machine) compilePlan(clamped []bool) *clampPlan {
	pl := &clampPlan{
		intra:  compilePlanMat(m.intra, clamped),
		phases: make([]planMat, len(m.phases)),
	}
	for k, ph := range m.phases {
		pl.phases[k] = compilePlanMat(ph, clamped)
	}
	for i, c := range clamped {
		if c {
			pl.clampIdx = append(pl.clampIdx, i)
		} else {
			pl.freeIdx = append(pl.freeIdx, i)
		}
	}
	return pl
}

// compilePlanMat splits one coupling matrix into its static (fully-clamped
// free rows) and dyn (mixed free rows, kept whole) parts. mat.SplitRowPlan
// carries each stored row over verbatim — same entries, same in-row order —
// so the static matrix folds, and the dyn matrix re-evaluates, the exact
// accumulation order the naive loop would use.
func compilePlanMat(s *mat.CSR, clamped []bool) planMat {
	static, dyn := mat.SplitRowPlan(s, clamped)
	return planMat{static: static, dyn: dyn}
}

// maxPlanDeltaBits bounds how large a clamp-mask symmetric difference the
// delta compiler accepts. A sliding observation window shifts two bits per
// tick (one index leaves, one enters); beyond a handful of flips the
// affected-row set approaches the whole matrix and a full compile is both
// simpler and no slower.
const maxPlanDeltaBits = 4

// CompilePlanDelta implements engine.DeltaBackend: it patches a previously
// compiled plan for oldClamped into the plan for newClamped, reclassifying
// only the rows the mask delta touches. The product is structurally
// identical to a full compilePlan of newClamped — bit for bit, so the
// planned-vs-naive identity invariant holds for patched plans too — and the
// previous plan is never mutated (it may still be cached under its own
// key). Returns nil to decline when the delta is empty, too large, or prev
// is not this machine's plan type; the engine then falls back to a full
// compile.
func (m *Machine) CompilePlanDelta(prev any, oldClamped, newClamped []bool) any {
	pl, ok := prev.(*clampPlan)
	if !ok || len(oldClamped) != m.N || len(newClamped) != m.N {
		return nil
	}
	changed := 0
	for i := range newClamped {
		if oldClamped[i] != newClamped[i] {
			changed++
		}
	}
	if changed == 0 || changed > maxPlanDeltaBits {
		return nil
	}
	m.colRowsOnce.Do(func() {
		m.intraColRows = m.intra.ColRows()
		m.phaseColRows = make([][][]int32, len(m.phases))
		for k, ph := range m.phases {
			m.phaseColRows[k] = ph.ColRows()
		}
	})
	np := &clampPlan{
		intra:  patchPlanMat(m.intra, pl.intra, m.intraColRows, oldClamped, newClamped),
		phases: make([]planMat, len(m.phases)),
	}
	for k, ph := range m.phases {
		np.phases[k] = patchPlanMat(ph, pl.phases[k], m.phaseColRows[k], oldClamped, newClamped)
	}
	np.freeIdx = make([]int, 0, len(pl.freeIdx))
	np.clampIdx = make([]int, 0, len(pl.clampIdx))
	for i, c := range newClamped {
		if c {
			np.clampIdx = append(np.clampIdx, i)
		} else {
			np.freeIdx = append(np.freeIdx, i)
		}
	}
	return np
}

// patchPlanMat is compilePlanMat through mat.PatchRowPlan: unaffected rows
// are copied from the previous split wholesale.
func patchPlanMat(s *mat.CSR, prev planMat, colRows [][]int32, oldClamped, newClamped []bool) planMat {
	static, dyn := mat.PatchRowPlan(s, prev.static, prev.dyn, colRows, oldClamped, newClamped)
	return planMat{static: static, dyn: dyn}
}

// refreshPhasePlanned is refreshPhase on the plan path: slice k's held
// contribution is re-derived from the fresh state, but only the dyn rows are
// actually re-accumulated — static rows re-emit their folded bias, which is
// the bit pattern a full recompute would produce. The subtract/recompute/add
// sequence on interSum is kept per free node because a-c+c need not
// round-trip even when c is unchanged.
func refreshPhasePlanned(st *InferState, sc *scratch, pl *clampPlan, k int) {
	contrib := sc.contrib[k]
	interSum := sc.interSum
	for _, i := range pl.freeIdx {
		interSum[i] -= contrib[i]
	}
	pl.phases[k].dyn.MulVecAdd(st.X, sc.biasPhase[k], contrib)
	for _, i := range pl.freeIdx {
		interSum[i] += contrib[i]
	}
}

// inferPlanned is the clamp-plan hot loop: inferNaive with the constant
// clamp currents folded out and every per-node loop walking the free index
// list. Each floating-point operation it performs on a free node's state is
// the operation inferNaive performs, in the same order — see the package
// comment for the discipline — so the Result is bit-identical.
func (m *Machine) inferPlanned(st *InferState, pl *clampPlan) (*Result, error) {
	sc := st.Scratch.(*scratch)
	x := st.X
	steps := int(m.cfg.MaxTimeNs / m.cfg.Dt)
	if steps < 1 {
		return nil, errNoSteps
	}

	// Fold the constant clamp currents: one number per fully-clamped row,
	// computed here once instead of once per step. Free columns are never
	// read (static rows have none), so the uninitialized free voltages
	// cannot leak in.
	pl.intra.static.MulVec(x, sc.biasIntra)
	for k := range pl.phases {
		pl.phases[k].static.MulVec(x, sc.biasPhase[k])
	}

	intraCur := sc.intraCur
	deriv := sc.deriv
	interSum := sc.interSum
	for i := range interSum {
		interSum[i] = 0
	}
	for k := range sc.contrib {
		c := sc.contrib[k]
		for i := range c {
			c[i] = 0
		}
	}
	free := pl.freeIdx
	pl.phases[0].dyn.MulVecAdd(x, sc.biasPhase[0], sc.contrib[0])
	for _, i := range free {
		interSum[i] += sc.contrib[0][i]
	}
	if st.WarmStart {
		// Streaming warm tick: seed every held slice from the warm-start
		// equilibrium up front instead of waiting for the rotation to
		// first reach it — mirrors inferNaive's warm init exactly.
		for k := 1; k < len(m.phases); k++ {
			refreshPhasePlanned(st, sc, pl, k)
		}
	}

	noisy := m.cfg.NodeNoise > 0 || m.cfg.CouplerNoise > 0
	var couplerScale float64
	if noisy {
		couplerScale = m.typicalCoupling()
	}
	r := &st.RNG

	phase := 0
	nextSwitch := m.cfg.SwitchIntervalNs
	annealT := 0.0
	switches := 0
	settled := false
	lastResidual := math.NaN()
	taken := 0
	checkEvery := int(m.cfg.SwitchIntervalNs*float64(len(m.phases))/m.cfg.Dt) + 1
	if checkEvery < 32 {
		checkEvery = 32
	}
	nextFine := 0 // earliest step for the next warm fine-grained check

	for s := 0; s < steps; s++ {
		pl.intra.dyn.MulVecAdd(x, sc.biasIntra, intraCur)
		refreshPhasePlanned(st, sc, pl, phase)
		maxD := 0.0
		for _, i := range free {
			cur := intraCur[i] + interSum[i]
			if noisy && m.cfg.CouplerNoise > 0 {
				cur += r.NormScaled(0, m.cfg.CouplerNoise*couplerScale)
			}
			d := cur + m.params.H[i]*x[i]
			if noisy && m.cfg.NodeNoise > 0 {
				d += r.NormScaled(0, m.cfg.NodeNoise)
			}
			if x[i] >= m.cfg.VRail && d > 0 {
				d = 0
			} else if x[i] <= -m.cfg.VRail && d < 0 {
				d = 0
			}
			deriv[i] = d
			if a := math.Abs(d); a > maxD {
				maxD = a
			}
		}
		// Fused update+rail-clamp+subnormal flush per free node; i-local,
		// so identical to the naive full-vector update and flush followed
		// by mat.Clamp. Clamped nodes never move (their observation
		// already respects the rail).
		// Both tests read |xi|, so the flush costs the common path one
		// abs and no extra comparison over a two-sided rail check.
		for _, i := range free {
			xi := x[i] + m.cfg.Dt*deriv[i]
			if a := math.Abs(xi); a > m.cfg.VRail {
				xi = math.Copysign(m.cfg.VRail, xi)
			} else if a < mat.MinNormal {
				xi = 0
			}
			x[i] = xi
		}
		annealT += m.cfg.Dt
		taken = s + 1
		if st.Observer != nil {
			st.Observer(StepInfo{
				Step:     s,
				TimeNs:   annealT,
				EnergyFn: st.EnergyFn,
				MaxDeriv: maxD,
				Phase:    phase,
				X:        x,
			})
		}

		// Mirrors inferNaive's convergence structure, lastResidual capture
		// included: planResidual equals fullResidual bit-for-bit, so the
		// reported Residual is bit-identical across the two paths.
		if len(m.phases) == 1 {
			if maxD < m.cfg.SettleTol {
				lastResidual = m.planResidual(pl, sc, x, sc.resBuf)
				if lastResidual < m.cfg.SettleTol*settleResidualFactor {
					settled = true
					break
				}
			}
		} else {
			// Warm-tick fine-grained settle check, mirroring inferNaive's
			// structure (and backoff) exactly; planResidual equals
			// fullResidual bit-for-bit, so warm naive and warm planned
			// runs settle on the same step with the same residual.
			if st.WarmStart && s >= nextFine && maxD < m.cfg.SettleTol {
				lastResidual = m.planResidual(pl, sc, x, sc.resBuf)
				if lastResidual < m.cfg.SettleTol*settleResidualFactor {
					settled = true
					break
				}
				nextFine = s + warmFineBackoff
			}
			if s%checkEvery == checkEvery-1 {
				lastResidual = m.planResidual(pl, sc, x, sc.resBuf)
				if lastResidual < m.cfg.SettleTol*settleResidualFactor {
					settled = true
					break
				}
			}
		}
		if len(m.phases) > 1 && annealT >= nextSwitch {
			phase = (phase + 1) % len(m.phases)
			switches++
			nextSwitch += m.cfg.SwitchIntervalNs
		}
	}
	st.Res = Result{
		Voltage:   x,
		AnnealNs:  annealT,
		LatencyNs: annealT + float64(switches)*m.cfg.SwitchOverheadNs,
		Settled:   settled,
		Switches:  switches,
		Steps:     taken,
		Energy:    m.EnergyAt(x),
		Residual:  lastResidual,
	}
	return &st.Res, nil
}

// planResidual is fullResidual on the plan path: the true max |dσ/dt| with
// every coupling fresh, accumulated per free row with static rows re-emitted
// from their folded bias. Mirrors fullResidual's order exactly — intra row
// first, then each slice's row sum added in slice order, each slice's
// contribution accumulated from zero (the bias for dyn rows) and added to
// the buffer in one operation (empty rows included: naive adds their zero
// sum too, which rounds -0 to +0).
func (m *Machine) planResidual(pl *clampPlan, sc *scratch, x, buf []float64) float64 {
	pl.intra.dyn.MulVecAdd(x, sc.biasIntra, buf)
	for k := range pl.phases {
		dyn := pl.phases[k].dyn
		bias := sc.biasPhase[k]
		for _, i := range pl.freeIdx {
			sum := bias[i]
			for p := dyn.RowPtr[i]; p < dyn.RowPtr[i+1]; p++ {
				sum += dyn.Val[p] * x[dyn.ColIdx[p]]
			}
			buf[i] += sum
		}
	}
	maxD := 0.0
	for _, i := range pl.freeIdx {
		d := buf[i] + m.params.H[i]*x[i]
		if x[i] >= m.cfg.VRail && d > 0 {
			d = 0
		} else if x[i] <= -m.cfg.VRail && d < 0 {
			d = 0
		}
		if a := math.Abs(d); a > maxD {
			maxD = a
		}
	}
	return maxD
}
