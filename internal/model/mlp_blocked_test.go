package model

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"isgc/internal/dataset"
)

// refMLPLoss and refMLPGradInto are the per-sample MLP kernels the
// sample-blocked ones replaced: one sample at a time through both layers,
// one serial dot product per unit. They are the oracle the blocked kernels
// must equal bit for bit.
func refMLPLoss(m MLP, params []float64, batch []dataset.Sample) float64 {
	if len(batch) == 0 {
		return 0
	}
	h, z := make([]float64, m.Hidden), make([]float64, m.Classes)
	sum := 0.0
	for _, s := range batch {
		refMLPForward(m, h, z, params, s.X)
		sum += logSumExp(z) - z[int(s.Y)]
	}
	return sum / float64(len(batch))
}

func refMLPGradInto(m MLP, g, params []float64, batch []dataset.Sample) {
	for j := range g {
		g[j] = 0
	}
	if len(batch) == 0 {
		return
	}
	w1Len := m.Hidden * m.Features
	gW1 := g[0:w1Len]
	gB1 := g[w1Len : w1Len+m.Hidden]
	gW2 := g[w1Len+m.Hidden : w1Len+m.Hidden+m.Classes*m.Hidden]
	gB2 := g[w1Len+m.Hidden+m.Classes*m.Hidden:]
	_, _, w2, _ := m.slices(params)
	h, z := make([]float64, m.Hidden), make([]float64, m.Classes)
	for _, s := range batch {
		refMLPForward(m, h, z, params, s.X)
		softmaxInPlace(z)
		dz := z
		y := int(s.Y)
		for k := 0; k < m.Classes; k++ {
			if k == y {
				dz[k] -= 1
			}
			row := gW2[k*m.Hidden : (k+1)*m.Hidden]
			for i, hi := range h {
				row[i] += dz[k] * hi
			}
			gB2[k] += dz[k]
		}
		for i := 0; i < m.Hidden; i++ {
			dh := 0.0
			for k := 0; k < m.Classes; k++ {
				dh += w2[k*m.Hidden+i] * dz[k]
			}
			da := dh * (1 - h[i]*h[i])
			row := gW1[i*m.Features : (i+1)*m.Features]
			for j, x := range s.X {
				row[j] += da * x
			}
			gB1[i] += da
		}
	}
	inv := 1 / float64(len(batch))
	for j := range g {
		g[j] *= inv
	}
}

func refMLPForward(m MLP, h, z, params, x []float64) {
	w1, b1, w2, b2 := m.slices(params)
	for i := 0; i < m.Hidden; i++ {
		s := 0.0
		for j, xj := range x {
			s += w1[i*m.Features+j] * xj
		}
		h[i] = math.Tanh(s + b1[i])
	}
	for k := 0; k < m.Classes; k++ {
		s := 0.0
		for i, hi := range h {
			s += w2[k*m.Hidden+i] * hi
		}
		z[k] = s + b2[k]
	}
}

// specialValue draws from a mix that is mostly Gaussian but carries ±0,
// subnormals and (when inf is set) ±Inf, so the oracle also pins the
// kernels' behaviour at the edges of IEEE arithmetic.
func specialValue(rng *rand.Rand, inf bool) float64 {
	switch r := rng.Intn(40); {
	case r == 0:
		return 0
	case r == 1:
		return math.Copysign(0, -1)
	case r == 2:
		return float64(1+rng.Intn(1000)) * math.SmallestNonzeroFloat64
	case r == 3:
		return -3e-310
	case r == 4 && inf:
		return math.Inf(1)
	case r == 5 && inf:
		return math.Inf(-1)
	default:
		return rng.NormFloat64()
	}
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestMLPBlockedMatchesPerSample: the sample-blocked Loss and GradInto
// equal the per-sample kernels bit for bit, for every batch length around
// the block size, on inputs carrying ±0, subnormals and ±Inf.
func TestMLPBlockedMatchesPerSample(t *testing.T) {
	shapes := []MLP{
		{Features: 128, Hidden: 500, Classes: 4},
		{Features: 6, Hidden: 8, Classes: 3},
		{Features: 3, Hidden: 5, Classes: 2},
		{Features: 1, Hidden: 1, Classes: 2},
	}
	sizes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 63, 64, 65, 384}
	for si, m := range shapes {
		rng := rand.New(rand.NewSource(int64(si) + 11))
		params := m.InitParams(int64(si))
		for j := range params {
			if rng.Intn(10) == 0 {
				params[j] = specialValue(rng, false)
			}
		}
		// finite carries ±0 and subnormals; withInf is the same but for
		// sample 2, which also carries ±Inf (−Inf at least), so every batch of three or
		// more pins the non-finite path while finite keeps ordinary values
		// in the comparison.
		finite := make([]dataset.Sample, 384)
		withInf := make([]dataset.Sample, 384)
		for i := range finite {
			x, xi := make([]float64, m.Features), make([]float64, m.Features)
			for j := range x {
				x[j] = specialValue(rng, false)
				xi[j] = specialValue(rng, i == 2)
			}
			if i == 2 {
				xi[0] = math.Inf(-1)
			}
			y := float64(rng.Intn(m.Classes))
			finite[i] = dataset.Sample{X: x, Y: y}
			withInf[i] = dataset.Sample{X: xi, Y: y}
		}
		want := make([]float64, m.Dim())
		got := make([]float64, m.Dim())
		for _, n := range sizes {
			for _, pool := range [][]dataset.Sample{finite, withInf} {
				checkMLPBlocked(t, m, params, pool[:n], want, got)
			}
		}
	}
}

func checkMLPBlocked(t *testing.T, m MLP, params []float64, batch []dataset.Sample, want, got []float64) {
	t.Helper()
	name := fmt.Sprintf("%v/n=%d", m, len(batch))
	if l, r := m.Loss(params, batch), refMLPLoss(m, params, batch); !sameBits(l, r) {
		t.Errorf("%s: Loss = %v (%#x), per-sample %v (%#x)", name, l, math.Float64bits(l), r, math.Float64bits(r))
	}
	refMLPGradInto(m, want, params, batch)
	m.GradInto(got, params, batch)
	for j := range want {
		if !sameBits(got[j], want[j]) {
			t.Errorf("%s: grad[%d] = %v (%#x), per-sample %v (%#x)", name, j,
				got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
			break
		}
	}
}
