package linalg

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorOps(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}

	c := CloneVec(a)
	c[0] = 9
	if a[0] != 1 {
		t.Fatal("CloneVec must copy")
	}

	d := CloneVec(a)
	AddTo(d, b)
	if d[0] != 5 || d[1] != 7 || d[2] != 9 {
		t.Fatalf("AddTo = %v", d)
	}

	e := CloneVec(a)
	AXPY(e, 2, b)
	if e[0] != 9 || e[1] != 12 || e[2] != 15 {
		t.Fatalf("AXPY = %v", e)
	}

	f := CloneVec(a)
	Scale(f, -1)
	if f[0] != -1 || f[2] != -3 {
		t.Fatalf("Scale = %v", f)
	}

	if got := Dot(a, b); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
	if got := MaxAbsDiff(a, b); got != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", got)
	}
	if len(Zeros(4)) != 4 {
		t.Fatal("Zeros length")
	}

	g := []float64{0, 0, 0}
	AXPYInto(g, 2, b, a)
	if g[0] != 9 || g[1] != 12 || g[2] != 15 {
		t.Fatalf("AXPYInto = %v", g)
	}
	// Aliasing dst with y degenerates to AXPY.
	h := CloneVec(a)
	AXPYInto(h, 2, b, h)
	if h[0] != 9 || h[1] != 12 || h[2] != 15 {
		t.Fatalf("aliased AXPYInto = %v", h)
	}

	s := []float64{7, 7, 7}
	ScaleInto(s, 3, a)
	if s[0] != 3 || s[1] != 6 || s[2] != 9 {
		t.Fatalf("ScaleInto = %v", s)
	}

	ZeroVec(s)
	if s[0] != 0 || s[1] != 0 || s[2] != 0 {
		t.Fatalf("ZeroVec = %v", s)
	}
}

func TestVectorOpsPanicOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddTo":      func() { AddTo([]float64{1}, []float64{1, 2}) },
		"AXPY":       func() { AXPY([]float64{1}, 2, []float64{1, 2}) },
		"AXPYInto":   func() { AXPYInto([]float64{1}, 2, []float64{1, 2}, []float64{1, 2}) },
		"ScaleInto":  func() { ScaleInto([]float64{1}, 2, []float64{1, 2}) },
		"Dot":        func() { Dot([]float64{1}, []float64{1, 2}) },
		"MaxAbsDiff": func() { MaxAbsDiff([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, 5)
	if m.At(0, 0) != 1 || m.At(1, 2) != 5 || m.At(0, 1) != 0 {
		t.Fatal("Set/At broken")
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must be a view")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) == 99 {
		t.Fatal("Clone must deep-copy")
	}
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 5 {
		t.Fatal("T broken")
	}
}

func TestMatVecAndVecMat(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	y, err := m.MatVec([]float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if y[0] != -2 || y[1] != -2 {
		t.Fatalf("MatVec = %v", y)
	}
	z, err := m.VecMat([]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if z[0] != 5 || z[1] != 7 || z[2] != 9 {
		t.Fatalf("VecMat = %v", z)
	}
	if _, err := m.MatVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("MatVec shape error = %v", err)
	}
	if _, err := m.VecMat([]float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("VecMat shape error = %v", err)
	}
}

func TestMatMul(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 3, 4})
	b := NewMatrix(2, 2)
	copy(b.Data, []float64{0, 1, 1, 0})
	c, err := a.MatMul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 1, 4, 3}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
	if _, err := a.MatMul(NewMatrix(3, 2)); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error")
	}
}

func TestSelectRows(t *testing.T) {
	m := NewMatrix(3, 2)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	s, err := m.SelectRows([]int{2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if s.At(0, 0) != 5 || s.At(1, 1) != 2 {
		t.Fatalf("SelectRows = %v", s.Data)
	}
	if _, err := m.SelectRows([]int{3}); err == nil {
		t.Fatal("expected out-of-range error")
	}
	if _, err := m.SelectRows([]int{-1}); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestSolveKnownSystem(t *testing.T) {
	a := NewMatrix(3, 3)
	copy(a.Data, []float64{2, 1, -1, -3, -1, 2, -2, 1, 2})
	b := []float64{8, -11, -3}
	x, err := Solve(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEqual(x[i], want[i], 1e-9) {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
	// Inputs must be unmodified.
	if a.At(0, 0) != 2 || b[0] != 8 {
		t.Fatal("Solve must not modify inputs")
	}
}

func TestSolveRequiresPivoting(t *testing.T) {
	// Leading zero pivot forces a row swap.
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{0, 1, 1, 0})
	x, err := Solve(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 7, 1e-12) || !almostEqual(x[1], 3, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{1, 2, 2, 4})
	if _, err := Solve(a, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveShapeErrors(t *testing.T) {
	if _, err := Solve(NewMatrix(2, 3), []float64{1, 2}); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error for non-square")
	}
	if _, err := Solve(NewMatrix(2, 2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error for bad b")
	}
}

func TestLeastSquaresExact(t *testing.T) {
	// Overdetermined but consistent: recovers exact solution.
	a := NewMatrix(4, 2)
	copy(a.Data, []float64{1, 0, 0, 1, 1, 1, 2, 1})
	xTrue := []float64{3, -2}
	b, err := a.MatVec(xTrue)
	if err != nil {
		t.Fatal(err)
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xTrue {
		if !almostEqual(x[i], xTrue[i], 1e-9) {
			t.Fatalf("x = %v, want %v", x, xTrue)
		}
	}
}

func TestLeastSquaresResidualOrthogonality(t *testing.T) {
	// The residual of a least-squares solution is orthogonal to the column
	// space: Aᵀ(Ax − b) = 0.
	rng := rand.New(rand.NewSource(3))
	a := NewMatrix(6, 3)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	b := make([]float64, 6)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := a.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	res := CloneVec(ax)
	AXPY(res, -1, b)
	atr, err := a.T().MatVec(res)
	if err != nil {
		t.Fatal(err)
	}
	if Norm2(atr) > 1e-8 {
		t.Fatalf("‖Aᵀr‖ = %v, want ~0", Norm2(atr))
	}
}

func TestLeastSquaresErrors(t *testing.T) {
	if _, err := LeastSquares(NewMatrix(3, 2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error")
	}
	// Rank-deficient A: duplicate columns.
	a := NewMatrix(3, 2)
	copy(a.Data, []float64{1, 1, 2, 2, 3, 3})
	if _, err := LeastSquares(a, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveAnyUniqueSystem(t *testing.T) {
	a := NewMatrix(2, 2)
	copy(a.Data, []float64{2, 0, 0, 4})
	x, err := SolveAny(a, []float64{6, 8})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], 3, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveAnyRankDeficientConsistent(t *testing.T) {
	// Duplicate rows: consistent, infinitely many solutions.
	a := NewMatrix(3, 2)
	copy(a.Data, []float64{1, 1, 1, 1, 2, 0})
	b := []float64{3, 3, 2}
	x, err := SolveAny(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ax, err := a.MatVec(x)
	if err != nil {
		t.Fatal(err)
	}
	if MaxAbsDiff(ax, b) > 1e-9 {
		t.Fatalf("A·x = %v, want %v", ax, b)
	}
}

func TestSolveAnyUnderdetermined(t *testing.T) {
	// One equation, three unknowns: free variables must be zero.
	a := NewMatrix(1, 3)
	copy(a.Data, []float64{0, 2, 0})
	x, err := SolveAny(a, []float64{10})
	if err != nil {
		t.Fatal(err)
	}
	if x[0] != 0 || !almostEqual(x[1], 5, 1e-12) || x[2] != 0 {
		t.Fatalf("x = %v, want [0 5 0]", x)
	}
}

func TestSolveAnyInconsistent(t *testing.T) {
	a := NewMatrix(2, 1)
	copy(a.Data, []float64{1, 1})
	if _, err := SolveAny(a, []float64{1, 2}); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("err = %v, want ErrInconsistent", err)
	}
}

func TestSolveAnyShapeError(t *testing.T) {
	if _, err := SolveAny(NewMatrix(2, 2), []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatal("expected shape error")
	}
}

// Property: for random consistent systems (b = A·x0), SolveAny returns some
// x with A·x = b.
func TestQuickSolveAnyConsistent(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		a := NewMatrix(rows, cols)
		for i := range a.Data {
			// Low-rank-ish: occasionally zero entries and duplicated rows.
			if rng.Float64() < 0.3 {
				a.Data[i] = 0
			} else {
				a.Data[i] = rng.NormFloat64()
			}
		}
		if rows > 1 && rng.Float64() < 0.5 {
			copy(a.Row(rows-1), a.Row(0)) // force rank deficiency
		}
		x0 := make([]float64, cols)
		for i := range x0 {
			x0[i] = rng.NormFloat64()
		}
		b, err := a.MatVec(x0)
		if err != nil {
			return false
		}
		x, err := SolveAny(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MatVec(x)
		if err != nil {
			return false
		}
		return MaxAbsDiff(ax, b) < 1e-7
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRank(t *testing.T) {
	cases := []struct {
		rows, cols int
		data       []float64
		want       int
	}{
		{2, 2, []float64{1, 0, 0, 1}, 2},
		{2, 2, []float64{1, 2, 2, 4}, 1},
		{2, 2, []float64{0, 0, 0, 0}, 0},
		{3, 2, []float64{1, 0, 0, 1, 1, 1}, 2},
		{2, 3, []float64{1, 2, 3, 2, 4, 6}, 1},
		{3, 3, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}, 2},
	}
	for i, tc := range cases {
		m := NewMatrix(tc.rows, tc.cols)
		copy(m.Data, tc.data)
		if got := Rank(m); got != tc.want {
			t.Errorf("case %d: Rank = %d, want %d", i, got, tc.want)
		}
	}
}

// Property: Solve returns x with A·x ≈ b for random well-conditioned
// systems (diagonally dominant by construction).
func TestQuickSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Set(i, i, a.At(i, i)+float64(n)) // diagonal dominance
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := Solve(a, b)
		if err != nil {
			return false
		}
		ax, err := a.MatVec(x)
		if err != nil {
			return false
		}
		return MaxAbsDiff(ax, b) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: (AᵀB)ᵀ = BᵀA for random matrices.
func TestQuickTransposeProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, c, k := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := NewMatrix(r, c)
		b := NewMatrix(r, k)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
		}
		for i := range b.Data {
			b.Data[i] = rng.NormFloat64()
		}
		atb, err := a.T().MatMul(b)
		if err != nil {
			return false
		}
		bta, err := b.T().MatMul(a)
		if err != nil {
			return false
		}
		lhs := atb.T()
		return MaxAbsDiff(lhs.Data, bta.Data) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sumIntoInputs returns m vectors of dim elements. Element 0 is −0 in
// every vector (its sum must come out +0), element 1 mixes ±0, and the
// rest draw from subnormals, ordinary values and either ±Inf (even
// elements) or NaNs carrying payload k (odd element k, quiet or
// signalling). No element meets two different NaN payloads — an
// Inf − Inf makes one too — since which survives is up to the compiler
// (see SumInto).
func sumIntoInputs(rng *rand.Rand, m, dim int) [][]float64 {
	negZero := math.Copysign(0, -1)
	specials := []float64{negZero, 0, 5e-324, -3e-310, 2.2e-308, 1e308}
	vs := make([][]float64, m)
	for j := range vs {
		v := make([]float64, dim)
		for k := range v {
			switch r := rng.Intn(8); {
			case k == 0:
				v[k] = negZero
			case k == 1 && j%2 == 0:
				v[k] = negZero
			case k == 1:
				v[k] = 0
			case r == 0:
				v[k] = specials[rng.Intn(len(specials))]
			case r == 1 && k%2 == 0:
				v[k] = math.Inf(1 - 2*rng.Intn(2))
			case r == 1 && k%4 == 1:
				v[k] = math.Float64frombits(0x7ff8000000000000 | uint64(k)) // quiet
			case r == 1:
				v[k] = math.Float64frombits(0x7ff0000000000000 | uint64(k)) // signalling
			default:
				v[k] = rng.NormFloat64()
			}
		}
		vs[j] = v
	}
	return vs
}

// TestSumIntoBitsMatchAddTo: SumInto gives the bits of zeroing dst and
// AddTo-ing each vector in turn, for 1–9 vectors at dims 0, 1, 3 and
// 2^16+3, into a fresh dst and into vs[0] itself, NaN payloads
// included.
func TestSumIntoBitsMatchAddTo(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, dim := range []int{0, 1, 3, 1<<16 + 3} {
		for m := 1; m <= 9; m++ {
			vs := sumIntoInputs(rng, m, dim)
			want := make([]float64, dim)
			for _, v := range vs {
				AddTo(want, v)
			}
			got := make([]float64, dim)
			for k := range got {
				got[k] = float64(k) + 0.5 // stale contents must not leak in
			}
			SumInto(got, vs)
			aliased := CloneVec(vs[0])
			SumInto(aliased, append([][]float64{aliased}, vs[1:]...))
			for k := range want {
				w := math.Float64bits(want[k])
				if g := math.Float64bits(got[k]); g != w {
					t.Fatalf("dim %d, %d vectors: element %d = %#x, reference %#x", dim, m, k, g, w)
				}
				if a := math.Float64bits(aliased[k]); a != w {
					t.Fatalf("dim %d, %d vectors, dst = vs[0]: element %d = %#x, reference %#x", dim, m, k, a, w)
				}
			}
			if dim > 0 && math.Signbit(got[0]) {
				t.Fatal("a sum of −0s must come out +0")
			}
		}
	}
}

func TestSumIntoEdges(t *testing.T) {
	dst := []float64{1, math.NaN()}
	SumInto(dst, nil)
	if math.Float64bits(dst[0]) != 0 || math.Float64bits(dst[1]) != 0 {
		t.Fatalf("no vectors must zero dst, got %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	SumInto(make([]float64, 2), [][]float64{{1, 2}, {3}})
}
