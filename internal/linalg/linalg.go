// Package linalg provides the small dense linear-algebra kernel the rest of
// the repository builds on: vector arithmetic for gradient manipulation,
// dense matrices for the classic gradient-coding construction (Tandon et
// al.), Gaussian elimination with partial pivoting for decode-vector
// solves, and least squares via normal equations.
//
// Only float64 and the standard library are used; this is deliberately a
// minimal, well-tested kernel rather than a general BLAS.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear solve meets a (numerically)
// singular system.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: dimension mismatch")

// pivotEps is the absolute pivot threshold below which a matrix is treated
// as singular during elimination.
const pivotEps = 1e-12

// Vector operations ----------------------------------------------------

// Zeros returns an all-zero vector of length n.
func Zeros(n int) []float64 { return make([]float64, n) }

// CloneVec returns a copy of v.
func CloneVec(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// AddTo adds src into dst element-wise. Panics on length mismatch: callers
// control both operands, so a mismatch is a programming error.
func AddTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: AddTo length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, x := range src {
		dst[i] += x
	}
}

// SumInto sets dst[k] = 0 + vs[0][k] + vs[1][k] + …, summed left to
// right: the bits of zeroing dst and AddTo-ing each vector in turn, so a
// sum of −0s comes out +0. It reads each vector once and writes dst once
// per four vectors, instead of one read-modify-write pass per vector.
// dst may alias vs[0] but must not partially overlap any vector; with no
// vectors dst is zeroed. Panics on length mismatch, like AddTo.
//
// The one exception is an element where two different NaN payloads
// meet: which survives is up to the compiled add's operand order, which
// Go does not fix (it changes between builds, -race among them), so no
// summation loop, old or new, gives those bits reproducibly.
func SumInto(dst []float64, vs [][]float64) {
	for _, v := range vs {
		if len(v) != len(dst) {
			panic(fmt.Sprintf("linalg: SumInto length mismatch %d vs %d", len(dst), len(v)))
		}
	}
	if len(vs) == 0 {
		ZeroVec(dst)
		return
	}
	// The first pass starts each element from +0, later ones from dst.
	for start := true; len(vs) > 0; start = false {
		k := min(len(vs), 4)
		sumPass(dst, start, vs[:k])
		vs = vs[k:]
	}
}

// sumPass adds one to four vectors into dst, starting from +0 when start
// is set and from dst otherwise. Each arity has its own loop so every
// element is one chain of adds in vector order.
func sumPass(dst []float64, start bool, vs [][]float64) {
	n := len(dst)
	switch len(vs) {
	case 1:
		a := vs[0][:n]
		if start {
			for k := range dst {
				dst[k] = 0 + a[k]
			}
		} else {
			for k := range dst {
				dst[k] = dst[k] + a[k]
			}
		}
	case 2:
		a, b := vs[0][:n], vs[1][:n]
		if start {
			for k := range dst {
				dst[k] = 0 + a[k] + b[k]
			}
		} else {
			for k := range dst {
				dst[k] = dst[k] + a[k] + b[k]
			}
		}
	case 3:
		a, b, c := vs[0][:n], vs[1][:n], vs[2][:n]
		if start {
			for k := range dst {
				dst[k] = 0 + a[k] + b[k] + c[k]
			}
		} else {
			for k := range dst {
				dst[k] = dst[k] + a[k] + b[k] + c[k]
			}
		}
	default:
		a, b, c, d := vs[0][:n], vs[1][:n], vs[2][:n], vs[3][:n]
		if start {
			for k := range dst {
				dst[k] = 0 + a[k] + b[k] + c[k] + d[k]
			}
		} else {
			for k := range dst {
				dst[k] = dst[k] + a[k] + b[k] + c[k] + d[k]
			}
		}
	}
}

// AXPY computes dst += a*src element-wise.
func AXPY(dst []float64, a float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: AXPY length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, x := range src {
		dst[i] += a * x
	}
}

// AXPYInto computes dst = y + a*x element-wise, overwriting dst. dst may
// alias y (then it degenerates to AXPY) but must not partially overlap x.
// This is the fused form the compute pipeline uses to combine a scratch
// gradient into a pooled destination without an intermediate copy.
func AXPYInto(dst []float64, a float64, x, y []float64) {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic(fmt.Sprintf("linalg: AXPYInto length mismatch %d vs %d vs %d", len(dst), len(x), len(y)))
	}
	for i := range dst {
		dst[i] = y[i] + a*x[i]
	}
}

// ScaleInto computes dst = a*src element-wise, overwriting dst. dst may
// alias src (then it degenerates to Scale).
func ScaleInto(dst []float64, a float64, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: ScaleInto length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, x := range src {
		dst[i] = a * x
	}
}

// ZeroVec sets every element of v to zero, retaining the allocation —
// the reset half of every pooled-buffer reuse.
func ZeroVec(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// Scale multiplies v by a in place.
func Scale(v []float64, a float64) {
	for i := range v {
		v[i] *= a
	}
}

// Dot returns the inner product of a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	s := 0.0
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// MaxAbsDiff returns max_i |a[i]-b[i]|, a convenient convergence metric.
func MaxAbsDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("linalg: MaxAbsDiff length mismatch %d vs %d", len(a), len(b)))
	}
	m := 0.0
	for i, x := range a {
		if d := math.Abs(x - b[i]); d > m {
			m = d
		}
	}
	return m
}

// Matrix ----------------------------------------------------------------

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MatVec returns m·x.
func (m *Matrix) MatVec(x []float64) ([]float64, error) {
	if len(x) != m.Cols {
		return nil, fmt.Errorf("%w: %dx%d · %d", ErrShape, m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = Dot(m.Row(i), x)
	}
	return out, nil
}

// VecMat returns xᵀ·m as a vector of length Cols.
func (m *Matrix) VecMat(x []float64) ([]float64, error) {
	if len(x) != m.Rows {
		return nil, fmt.Errorf("%w: %d · %dx%d", ErrShape, len(x), m.Rows, m.Cols)
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		AXPY(out, x[i], m.Row(i))
	}
	return out, nil
}

// MatMul returns m·o.
func (m *Matrix) MatMul(o *Matrix) (*Matrix, error) {
	if m.Cols != o.Rows {
		return nil, fmt.Errorf("%w: %dx%d · %dx%d", ErrShape, m.Rows, m.Cols, o.Rows, o.Cols)
	}
	out := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		mi := m.Row(i)
		oi := out.Row(i)
		for k := 0; k < m.Cols; k++ {
			AXPY(oi, mi[k], o.Row(k))
		}
	}
	return out, nil
}

// SelectRows returns the submatrix of the given rows (copied).
func (m *Matrix) SelectRows(rows []int) (*Matrix, error) {
	out := NewMatrix(len(rows), m.Cols)
	for i, r := range rows {
		if r < 0 || r >= m.Rows {
			return nil, fmt.Errorf("linalg: row %d out of range [0,%d)", r, m.Rows)
		}
		copy(out.Row(i), m.Row(r))
	}
	return out, nil
}

// Solvers ----------------------------------------------------------------

// Solve solves the square system A·x = b by Gaussian elimination with
// partial pivoting. A and b are left unmodified.
func Solve(a *Matrix, b []float64) ([]float64, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: Solve needs square matrix, got %dx%d", ErrShape, a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, fmt.Errorf("%w: b length %d for %dx%d system", ErrShape, len(b), a.Rows, a.Cols)
	}
	n := a.Rows
	m := a.Clone()
	x := CloneVec(b)
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv, pval := col, math.Abs(m.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m.At(r, col)); v > pval {
				piv, pval = r, v
			}
		}
		if pval < pivotEps {
			return nil, fmt.Errorf("%w: pivot %g at column %d", ErrSingular, pval, col)
		}
		if piv != col {
			swapRows(m, piv, col)
			x[piv], x[col] = x[col], x[piv]
		}
		inv := 1 / m.At(col, col)
		for r := col + 1; r < n; r++ {
			f := m.At(r, col) * inv
			if f == 0 {
				continue
			}
			AXPY(m.Row(r), -f, m.Row(col))
			m.Set(r, col, 0)
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		row := m.Row(i)
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
	return x, nil
}

func swapRows(m *Matrix, i, j int) {
	ri, rj := m.Row(i), m.Row(j)
	for k := range ri {
		ri[k], rj[k] = rj[k], ri[k]
	}
}

// LeastSquares solves min_x ‖A·x − b‖₂ via the normal equations
// AᵀA·x = Aᵀb. A must have full column rank (else ErrSingular).
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("%w: b length %d for %dx%d matrix", ErrShape, len(b), a.Rows, a.Cols)
	}
	at := a.T()
	ata, err := at.MatMul(a)
	if err != nil {
		return nil, err
	}
	atb, err := at.MatVec(b)
	if err != nil {
		return nil, err
	}
	return Solve(ata, atb)
}

// ErrInconsistent is returned by SolveAny when the system has no solution.
var ErrInconsistent = errors.New("linalg: inconsistent system")

// SolveAny returns a particular solution x of the (possibly rectangular,
// possibly rank-deficient) system A·x = b, with free variables set to zero.
// It returns ErrInconsistent when no solution exists. A and b are left
// unmodified. This is what the classic-GC decoder needs: B_{W'} often has
// repeated rows (FR) or more rows than needed (w > n-s), so the decode
// system is consistent but rank-deficient.
func SolveAny(a *Matrix, b []float64) ([]float64, error) {
	if len(b) != a.Rows {
		return nil, fmt.Errorf("%w: b length %d for %dx%d system", ErrShape, len(b), a.Rows, a.Cols)
	}
	m := a.Clone()
	rhs := CloneVec(b)
	maxAbs := 0.0
	for _, v := range m.Data {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	tol := pivotEps
	if maxAbs > 1 {
		tol *= maxAbs
	}
	// Forward elimination to row echelon form, recording pivot columns.
	pivotCols := make([]int, 0, m.Cols)
	row := 0
	for col := 0; col < m.Cols && row < m.Rows; col++ {
		piv, pval := row, math.Abs(m.At(row, col))
		for r := row + 1; r < m.Rows; r++ {
			if v := math.Abs(m.At(r, col)); v > pval {
				piv, pval = r, v
			}
		}
		if pval <= tol {
			continue
		}
		if piv != row {
			swapRows(m, piv, row)
			rhs[piv], rhs[row] = rhs[row], rhs[piv]
		}
		inv := 1 / m.At(row, col)
		for r := row + 1; r < m.Rows; r++ {
			f := m.At(r, col) * inv
			if f != 0 {
				AXPY(m.Row(r), -f, m.Row(row))
				m.Set(r, col, 0)
				rhs[r] -= f * rhs[row]
			}
		}
		pivotCols = append(pivotCols, col)
		row++
	}
	// Consistency: zero rows must have (near-)zero RHS.
	rhsScale := 1.0
	for _, v := range b {
		if av := math.Abs(v); av > rhsScale {
			rhsScale = av
		}
	}
	for r := row; r < m.Rows; r++ {
		if math.Abs(rhs[r]) > 1e-8*rhsScale*float64(m.Cols+1) {
			return nil, fmt.Errorf("%w: residual %g in eliminated row %d", ErrInconsistent, rhs[r], r)
		}
	}
	// Back substitution over pivot columns; free variables stay zero.
	x := make([]float64, m.Cols)
	for k := len(pivotCols) - 1; k >= 0; k-- {
		col := pivotCols[k]
		s := rhs[k]
		rowv := m.Row(k)
		for j := col + 1; j < m.Cols; j++ {
			s -= rowv[j] * x[j]
		}
		x[col] = s / rowv[col]
	}
	return x, nil
}

// Rank returns the numerical rank of a (Gaussian elimination with full row
// pivoting and threshold pivotEps relative to the largest element).
func Rank(a *Matrix) int {
	m := a.Clone()
	maxAbs := 0.0
	for _, v := range m.Data {
		if av := math.Abs(v); av > maxAbs {
			maxAbs = av
		}
	}
	if maxAbs == 0 {
		return 0
	}
	tol := pivotEps * maxAbs * float64(max(m.Rows, m.Cols))
	rank := 0
	for col := 0; col < m.Cols && rank < m.Rows; col++ {
		piv, pval := rank, math.Abs(m.At(rank, col))
		for r := rank + 1; r < m.Rows; r++ {
			if v := math.Abs(m.At(r, col)); v > pval {
				piv, pval = r, v
			}
		}
		if pval <= tol {
			continue
		}
		if piv != rank {
			swapRows(m, piv, rank)
		}
		inv := 1 / m.At(rank, col)
		for r := rank + 1; r < m.Rows; r++ {
			f := m.At(r, col) * inv
			if f != 0 {
				AXPY(m.Row(r), -f, m.Row(rank))
			}
		}
		rank++
	}
	return rank
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
