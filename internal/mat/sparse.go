package mat

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row matrix. It is the storage format used for
// the sparsified coupling matrices after decomposition: the Scalable DSPU
// evaluates coupling currents by iterating CSR rows.
type CSR struct {
	Rows, Cols int
	RowPtr     []int     // len Rows+1
	ColIdx     []int     // len NNZ
	Val        []float64 // len NNZ
}

// NNZ returns the number of stored entries.
func (s *CSR) NNZ() int { return len(s.Val) }

// Density returns NNZ divided by Rows*Cols.
func (s *CSR) Density() float64 {
	if s.Rows == 0 || s.Cols == 0 {
		return 0
	}
	return float64(s.NNZ()) / float64(s.Rows*s.Cols)
}

// FromDense converts a dense matrix to CSR, dropping entries with
// |v| <= eps.
func FromDense(m *Dense, eps float64) *CSR {
	s := &CSR{Rows: m.Rows, Cols: m.Cols, RowPtr: make([]int, m.Rows+1)}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			if math.Abs(v) > eps {
				s.ColIdx = append(s.ColIdx, j)
				s.Val = append(s.Val, v)
			}
		}
		s.RowPtr[i+1] = len(s.Val)
	}
	return s
}

// ToDense expands s to a dense matrix.
func (s *CSR) ToDense() *Dense {
	m := NewDense(s.Rows, s.Cols)
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			m.Set(i, s.ColIdx[p], s.Val[p])
		}
	}
	return m
}

// At returns element (i, j), using binary search within the row.
func (s *CSR) At(i, j int) float64 {
	lo, hi := s.RowPtr[i], s.RowPtr[i+1]
	idx := sort.SearchInts(s.ColIdx[lo:hi], j) + lo
	if idx < hi && s.ColIdx[idx] == j {
		return s.Val[idx]
	}
	return 0
}

// MulVec computes y = s*x. If y is non-nil with the right length it is
// reused.
func (s *CSR) MulVec(x, y []float64) []float64 {
	if len(x) != s.Cols {
		panic(fmt.Sprintf("mat: CSR MulVec dimension mismatch: %d cols vs %d vec", s.Cols, len(x)))
	}
	if y == nil || len(y) != s.Rows {
		y = make([]float64, s.Rows)
	}
	for i := 0; i < s.Rows; i++ {
		var sum float64
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			sum += s.Val[p] * x[s.ColIdx[p]]
		}
		y[i] = sum
	}
	return y
}

// RowNNZ returns the number of stored entries in row i.
func (s *CSR) RowNNZ(i int) int { return s.RowPtr[i+1] - s.RowPtr[i] }

// MulVecAddRows computes the fused y[i] = add[i] + (s*x)[i] for each row i
// listed in rows, in list order, and leaves every other entry of y
// untouched. Each listed row's accumulation starts literally at add[i] (no
// extra +0 when the row is empty) and walks the row's stored entries in
// order, so composing a precomputed partial sum with the remaining entries
// is bit-identical to summing the full row from zero — the property the
// clamp-plan compiler relies on when it folds constant clamp currents into a
// per-row bias. Listing only the free rows is what keeps a clamp plan's
// per-step cost proportional to the nodes that actually move. y is reused
// when it has the right length (a fresh y is zero outside rows) and may
// alias add; it must not alias x.
func (s *CSR) MulVecAddRows(rows []int, x, add, y []float64) []float64 {
	if len(x) != s.Cols {
		panic(fmt.Sprintf("mat: CSR MulVecAddRows dimension mismatch: %d cols vs %d vec", s.Cols, len(x)))
	}
	if len(add) != s.Rows {
		panic(fmt.Sprintf("mat: CSR MulVecAddRows bias mismatch: %d rows vs %d bias", s.Rows, len(add)))
	}
	if y == nil || len(y) != s.Rows {
		y = make([]float64, s.Rows)
	}
	for _, i := range rows {
		y[i] = s.RowSum(i, add[i], x)
	}
	return y
}

// RowSum returns start plus row i's stored entries times x, accumulated in
// stored order beginning literally at start: an empty row returns start
// itself, with no +0 added (which would turn -0 into +0). It is the one row
// sum of every clamp-plan kernel, so a folded bias composed with the
// remaining entries rounds exactly as the full row summed from zero. Small
// enough to inline into the anneal loops.
func (s *CSR) RowSum(i int, start float64, x []float64) float64 {
	for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
		start += s.Val[p] * x[s.ColIdx[p]]
	}
	return start
}

// SplitCols partitions s by a column mask into two matrices of the same
// shape: free holds the entries whose column is NOT marked, clamped holds
// the entries whose column IS marked. Row structure and the within-row entry
// order are both preserved, so for every row the concatenation of the two
// parts' entries (in column order) is exactly the original row, and
// free + clamped == s element-wise.
//
// The clamp-plan compiler uses the split to fold constant coupling currents:
// during clamped inference the marked (observed) columns' voltages never
// change, so clamped*x is a constant vector computable once per inference,
// and only the free part needs re-evaluation inside the anneal loop. A row
// whose free part is empty is entirely constant — its clamped part IS the
// original row, so the folded sum carries the original accumulation order
// bit for bit.
func (s *CSR) SplitCols(mask []bool) (free, clamped *CSR) {
	if len(mask) != s.Cols {
		panic(fmt.Sprintf("mat: CSR SplitCols mask has %d entries, want %d cols", len(mask), s.Cols))
	}
	free = &CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: make([]int, s.Rows+1)}
	clamped = &CSR{Rows: s.Rows, Cols: s.Cols, RowPtr: make([]int, s.Rows+1)}
	for i := 0; i < s.Rows; i++ {
		for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
			j := s.ColIdx[p]
			if mask[j] {
				clamped.ColIdx = append(clamped.ColIdx, j)
				clamped.Val = append(clamped.Val, s.Val[p])
			} else {
				free.ColIdx = append(free.ColIdx, j)
				free.Val = append(free.Val, s.Val[p])
			}
		}
		free.RowPtr[i+1] = len(free.Val)
		clamped.RowPtr[i+1] = len(clamped.Val)
	}
	return free, clamped
}

// Builder accumulates (i, j, v) triplets and produces a CSR matrix.
// Duplicate entries for the same (i, j) are summed.
type Builder struct {
	rows, cols int
	entries    map[[2]int]float64
}

// NewBuilder returns a Builder for a rows x cols matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols, entries: make(map[[2]int]float64)}
}

// Add accumulates v at (i, j).
func (b *Builder) Add(i, j int, v float64) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("mat: Builder.Add out of range (%d,%d) in %dx%d", i, j, b.rows, b.cols))
	}
	b.entries[[2]int{i, j}] += v
}

// Build produces the CSR matrix. Entries that summed to exactly zero are
// still stored; callers that care should prune with eps beforehand.
func (b *Builder) Build() *CSR {
	type trip struct {
		i, j int
		v    float64
	}
	trips := make([]trip, 0, len(b.entries))
	for k, v := range b.entries {
		trips = append(trips, trip{k[0], k[1], v})
	}
	sort.Slice(trips, func(a, c int) bool {
		if trips[a].i != trips[c].i {
			return trips[a].i < trips[c].i
		}
		return trips[a].j < trips[c].j
	})
	s := &CSR{Rows: b.rows, Cols: b.cols, RowPtr: make([]int, b.rows+1)}
	s.ColIdx = make([]int, 0, len(trips))
	s.Val = make([]float64, 0, len(trips))
	row := 0
	for _, t := range trips {
		for row < t.i {
			row++
			s.RowPtr[row] = len(s.Val)
		}
		s.ColIdx = append(s.ColIdx, t.j)
		s.Val = append(s.Val, t.v)
	}
	for row < b.rows {
		row++
		s.RowPtr[row] = len(s.Val)
	}
	return s
}
