package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromDenseRoundTrip(t *testing.T) {
	m := NewDenseFrom(3, 3, []float64{0, 1, 0, 2, 0, 3, 0, 0, 0})
	s := FromDense(m, 0)
	if s.NNZ() != 3 {
		t.Fatalf("NNZ = %d, want 3", s.NNZ())
	}
	back := s.ToDense()
	if !back.Equal(m, 0) {
		t.Fatalf("round trip mismatch: %v vs %v", back.Data, m.Data)
	}
}

func TestFromDenseEps(t *testing.T) {
	m := NewDenseFrom(1, 3, []float64{0.001, 0.5, -0.0005})
	s := FromDense(m, 0.01)
	if s.NNZ() != 1 || s.Val[0] != 0.5 {
		t.Fatalf("eps pruning failed: %v", s.Val)
	}
}

func TestCSRAt(t *testing.T) {
	m := NewDenseFrom(2, 3, []float64{0, 7, 0, 1, 0, 2})
	s := FromDense(m, 0)
	cases := [][3]float64{{0, 1, 7}, {0, 0, 0}, {1, 0, 1}, {1, 2, 2}, {1, 1, 0}}
	for _, c := range cases {
		if got := s.At(int(c[0]), int(c[1])); got != c[2] {
			t.Fatalf("At(%d,%d) = %g, want %g", int(c[0]), int(c[1]), got, c[2])
		}
	}
}

func TestCSRMulVecMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m := NewDense(6, 6)
		for i := range m.Data {
			if r.next() < 0.3 {
				m.Data[i] = r.next()*2 - 1
			}
		}
		v := randVec(r, 6)
		dy := m.MulVec(v, nil)
		sy := FromDense(m, 0).MulVec(v, nil)
		for i := range dy {
			if math.Abs(dy[i]-sy[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCSRDensity(t *testing.T) {
	m := NewDense(4, 4)
	m.Set(0, 1, 1)
	m.Set(2, 3, 1)
	s := FromDense(m, 0)
	if got := s.Density(); got != 2.0/16 {
		t.Fatalf("Density = %g", got)
	}
}

func TestCSRRowNNZ(t *testing.T) {
	m := NewDenseFrom(2, 2, []float64{1, 1, 0, 1})
	s := FromDense(m, 0)
	if s.RowNNZ(0) != 2 || s.RowNNZ(1) != 1 {
		t.Fatalf("RowNNZ = %d,%d", s.RowNNZ(0), s.RowNNZ(1))
	}
}

func TestBuilderSumsDuplicates(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Add(0, 1, 1.5)
	b.Add(0, 1, 0.5)
	b.Add(1, 0, -1)
	s := b.Build()
	if got := s.At(0, 1); got != 2 {
		t.Fatalf("duplicate sum = %g, want 2", got)
	}
	if got := s.At(1, 0); got != -1 {
		t.Fatalf("At(1,0) = %g", got)
	}
}

func TestBuilderEmptyRows(t *testing.T) {
	b := NewBuilder(4, 4)
	b.Add(3, 0, 1)
	s := b.Build()
	if s.RowNNZ(0) != 0 || s.RowNNZ(1) != 0 || s.RowNNZ(2) != 0 || s.RowNNZ(3) != 1 {
		t.Fatalf("row pointers wrong: %v", s.RowPtr)
	}
	if s.At(3, 0) != 1 {
		t.Fatal("missing entry")
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2, 2).Add(2, 0, 1)
}

// TestSplitCols is the table test of the column-partition kernel: empty
// rows, all-clamped, none-clamped, and the 1×1 corner, plus a mixed case.
func TestSplitCols(t *testing.T) {
	for _, tc := range []struct {
		name           string
		rows, cols     int
		data           []float64
		mask           []bool
		wantFreeNNZ    int
		wantClampedNNZ int
	}{
		{
			name: "mixed-rows",
			rows: 3, cols: 4,
			data: []float64{
				1, 0, 2, 0,
				0, 3, 0, 4,
				5, 6, 0, 0,
			},
			mask:        []bool{true, false, true, false},
			wantFreeNNZ: 3, wantClampedNNZ: 3,
		},
		{
			name: "empty-rows",
			rows: 4, cols: 3,
			data: []float64{
				0, 0, 0,
				1, 0, 2,
				0, 0, 0,
				0, 3, 0,
			},
			mask:        []bool{false, true, false},
			wantFreeNNZ: 2, wantClampedNNZ: 1,
		},
		{
			name: "all-clamped",
			rows: 2, cols: 2,
			data:        []float64{0, 1, 2, 0},
			mask:        []bool{true, true},
			wantFreeNNZ: 0, wantClampedNNZ: 2,
		},
		{
			name: "none-clamped",
			rows: 2, cols: 2,
			data:        []float64{0, 1, 2, 0},
			mask:        []bool{false, false},
			wantFreeNNZ: 2, wantClampedNNZ: 0,
		},
		{
			name: "1x1-clamped",
			rows: 1, cols: 1,
			data:        []float64{7},
			mask:        []bool{true},
			wantFreeNNZ: 0, wantClampedNNZ: 1,
		},
		{
			name: "1x1-free",
			rows: 1, cols: 1,
			data:        []float64{7},
			mask:        []bool{false},
			wantFreeNNZ: 1, wantClampedNNZ: 0,
		},
		{
			name: "1x1-empty",
			rows: 1, cols: 1,
			data:        []float64{0},
			mask:        []bool{true},
			wantFreeNNZ: 0, wantClampedNNZ: 0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			orig := NewDenseFrom(tc.rows, tc.cols, tc.data)
			s := FromDense(orig, 0)
			free, clamped := s.SplitCols(tc.mask)
			if free.Rows != s.Rows || free.Cols != s.Cols ||
				clamped.Rows != s.Rows || clamped.Cols != s.Cols {
				t.Fatalf("shapes diverge: free %dx%d clamped %dx%d, want %dx%d",
					free.Rows, free.Cols, clamped.Rows, clamped.Cols, s.Rows, s.Cols)
			}
			if free.NNZ() != tc.wantFreeNNZ || clamped.NNZ() != tc.wantClampedNNZ {
				t.Fatalf("NNZ split = (%d free, %d clamped), want (%d, %d)",
					free.NNZ(), clamped.NNZ(), tc.wantFreeNNZ, tc.wantClampedNNZ)
			}
			// Every free entry must sit on an unmasked column, every
			// clamped entry on a masked one.
			for _, j := range free.ColIdx {
				if tc.mask[j] {
					t.Fatalf("free part holds masked column %d", j)
				}
			}
			for _, j := range clamped.ColIdx {
				if !tc.mask[j] {
					t.Fatalf("clamped part holds unmasked column %d", j)
				}
			}
			// free + clamped must recompose the original element-wise.
			sum := free.ToDense()
			sum.AddM(clamped.ToDense())
			if !sum.Equal(orig, 0) {
				t.Fatalf("free+clamped != original: %v vs %v", sum.Data, orig.Data)
			}
			// Within-row order must be preserved (columns ascending, as
			// FromDense stores them).
			for _, part := range []*CSR{free, clamped} {
				for i := 0; i < part.Rows; i++ {
					for p := part.RowPtr[i] + 1; p < part.RowPtr[i+1]; p++ {
						if part.ColIdx[p-1] >= part.ColIdx[p] {
							t.Fatalf("row %d order broken: %v", i, part.ColIdx[part.RowPtr[i]:part.RowPtr[i+1]])
						}
					}
				}
			}
		})
	}
}

func TestSplitColsMaskLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for short mask")
		}
	}()
	FromDense(NewDense(2, 3), 0).SplitCols([]bool{true})
}

// allRows lists rows 0..n-1.
func allRows(n int) []int {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = i
	}
	return rows
}

// TestMulVecAdd is the table test of the fused bias+matvec kernel over a row
// list. want holds every row's full value; rows (nil: all rows) selects which
// ones the kernel must evaluate, and every other entry of y must keep its
// previous bit pattern.
func TestMulVecAdd(t *testing.T) {
	for _, tc := range []struct {
		name   string
		r, c   int
		data   []float64
		x, add []float64
		rows   []int
		want   []float64
	}{
		{
			name: "basic",
			r:    2, c: 3,
			data: []float64{1, 0, 2, 0, -1, 0},
			x:    []float64{1, 2, 3},
			add:  []float64{10, 20},
			want: []float64{17, 18},
		},
		{
			name: "empty-rows-pass-bias-through",
			r:    3, c: 2,
			data: []float64{0, 0, 1, 1, 0, 0},
			x:    []float64{2, 3},
			add:  []float64{-1, 0, 4},
			want: []float64{-1, 5, 4},
		},
		{
			name: "1x1",
			r:    1, c: 1,
			data: []float64{2},
			x:    []float64{3},
			add:  []float64{1},
			want: []float64{7},
		},
		{
			name: "all-empty",
			r:    2, c: 2,
			data: []float64{0, 0, 0, 0},
			x:    []float64{9, 9},
			add:  []float64{1, 2},
			want: []float64{1, 2},
		},
		{
			name: "listed-rows-only",
			r:    4, c: 3,
			data: []float64{1, 2, 0, 0, 0, 3, -1, 0, 1, 0, 0, 0},
			x:    []float64{1, 2, 3},
			add:  []float64{0.5, 1, 2, -3},
			rows: []int{2, 0, 3}, // list order is free; each row is i-local
			want: []float64{5.5, 10, 4, -3},
		},
		{
			name: "empty-list",
			r:    2, c: 2,
			data: []float64{1, 1, 1, 1},
			x:    []float64{1, 1},
			add:  []float64{1, 1},
			rows: []int{},
			want: []float64{3, 3},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := FromDense(NewDenseFrom(tc.r, tc.c, tc.data), 0)
			rows := tc.rows
			if rows == nil {
				rows = allRows(tc.r)
			}
			listed := make([]bool, tc.r)
			for _, i := range rows {
				listed[i] = true
			}
			full := s.MulVecAddRows(allRows(tc.r), tc.x, tc.add, nil)
			for i := range tc.want {
				if full[i] != tc.want[i] {
					t.Fatalf("all rows: y[%d] = %g, want %g", i, full[i], tc.want[i])
				}
			}
			// Listed rows are bit-equal to the full evaluation; the rest
			// keep the sentinel. A correctly-sized y is written in place.
			const sentinel = -12345.25
			buf := make([]float64, tc.r)
			for i := range buf {
				buf[i] = sentinel
			}
			if out := s.MulVecAddRows(rows, tc.x, tc.add, buf); &out[0] != &buf[0] {
				t.Fatal("MulVecAddRows did not reuse the provided buffer")
			}
			for i := range buf {
				want := full[i]
				if !listed[i] {
					want = sentinel
				}
				if math.Float64bits(buf[i]) != math.Float64bits(want) {
					t.Fatalf("y[%d] = %g, want %g (listed %v)", i, buf[i], want, listed[i])
				}
			}
			// Aliasing y == add is allowed: unlisted rows keep their bias.
			aliased := append([]float64(nil), tc.add...)
			s.MulVecAddRows(rows, tc.x, aliased, aliased)
			for i := range aliased {
				want := full[i]
				if !listed[i] {
					want = tc.add[i]
				}
				if math.Float64bits(aliased[i]) != math.Float64bits(want) {
					t.Fatalf("aliased y[%d] = %g, want %g", i, aliased[i], want)
				}
			}
		})
	}
}

// TestRowSum pins the row-sum start rule every clamp-plan kernel shares: an
// empty row returns start itself (a -0 start stays -0; adding +0 would round
// it to +0), and a stored row accumulates onto start in stored order.
func TestRowSum(t *testing.T) {
	s := FromDense(NewDenseFrom(2, 3, []float64{0, 0, 0, 1, 0, -2}), 0)
	negZero := math.Copysign(0, -1)
	if got := s.RowSum(0, negZero, []float64{5, 6, 7}); math.Float64bits(got) != math.Float64bits(negZero) {
		t.Fatalf("empty row: RowSum(-0) = %g (bits %x), want -0", got, math.Float64bits(got))
	}
	x := []float64{0.1, 9, 0.7}
	want := 0.2 // float64 arithmetic in stored order, not constant folding
	want += 1 * x[0]
	want += -2 * x[2]
	if got := s.RowSum(1, 0.2, x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("RowSum(1, 0.2) = %v, want %v", got, want)
	}
	if got, want := s.RowSum(1, 0, x), s.MulVec(x, nil)[1]; math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("RowSum(1, 0) = %v, want MulVec's %v", got, want)
	}
}

// TestMulVecAddComposesWithSplitCols is the bit-identity property the clamp
// plans rely on: for any matrix and mask, folding the masked columns into a
// bias and fusing it back via MulVecAddRows over rows whose free part is
// empty reproduces MulVec's full-row sums exactly (not just approximately).
// The kernel walks a random row subset: a listed row with a zero bias is
// MulVec's row bit for bit, and an unlisted row is never written.
func TestMulVecAddComposesWithSplitCols(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		n := 7
		m := NewDense(n, n)
		for i := range m.Data {
			if r.next() < 0.4 {
				m.Data[i] = r.next()*2 - 1
			}
		}
		mask := make([]bool, n)
		for j := range mask {
			mask[j] = r.next() < 0.5
		}
		var rows []int
		listed := make([]bool, n)
		for i := 0; i < n; i++ {
			if r.next() < 0.6 {
				rows = append(rows, i)
				listed[i] = true
			}
		}
		s := FromDense(m, 0)
		free, clamp := s.SplitCols(mask)
		x := randVec(r, n)
		bias := clamp.MulVec(x, nil)
		fused := free.MulVecAddRows(rows, x, bias, nil)
		full := s.MulVec(x, nil)
		fromZero := s.MulVecAddRows(rows, x, make([]float64, n), nil)
		for i := 0; i < n; i++ {
			if !listed[i] {
				if fused[i] != 0 || fromZero[i] != 0 {
					return false
				}
				continue
			}
			if math.Float64bits(fromZero[i]) != math.Float64bits(full[i]) {
				return false
			}
			if free.RowNNZ(i) == 0 && fused[i] != full[i] {
				// A fully-folded row must match bit for bit.
				return false
			}
			if math.Abs(fused[i]-full[i]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMulVecAddDimensionPanics(t *testing.T) {
	s := FromDense(NewDense(2, 3), 0)
	for _, tc := range []struct {
		name   string
		x, add []float64
	}{
		{"short-x", make([]float64, 2), make([]float64, 2)},
		{"short-add", make([]float64, 3), make([]float64, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			// The dimensions are checked even when no row is listed.
			s.MulVecAddRows(nil, tc.x, tc.add, nil)
		})
	}
}

func TestBuilderMatchesFromDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := newTestRand(seed)
		m := NewDense(5, 5)
		b := NewBuilder(5, 5)
		for i := 0; i < 5; i++ {
			for j := 0; j < 5; j++ {
				if r.next() < 0.4 {
					v := r.next()
					m.Set(i, j, v)
					b.Add(i, j, v)
				}
			}
		}
		return b.Build().ToDense().Equal(m, 1e-15)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
