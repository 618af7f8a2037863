package isgc

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"isgc/internal/bitset"
	"isgc/internal/placement"
)

// oldAggregate is the zero-then-accumulate loop Aggregate used before it
// summed through linalg.SumInto: one read-modify-write pass per worker.
func oldAggregate(chosen *bitset.Set, coded [][]float64) []float64 {
	var ghat []float64
	chosen.Range(func(i int) bool {
		if ghat == nil {
			ghat = make([]float64, len(coded[i]))
		}
		for k, x := range coded[i] {
			ghat[k] += x
		}
		return true
	})
	return ghat
}

// oldEncode is the same loop over one worker's partition gradients, as
// Encode and EncodePartial ran it.
func oldEncode(local [][]float64) []float64 {
	out := make([]float64, len(local[0]))
	for _, g := range local {
		for k, x := range g {
			out[k] += x
		}
	}
	return out
}

// specialVecs returns m vectors of dim elements: element 0 is −0
// everywhere, the rest mix ±0, subnormals, ordinary values and either
// ±Inf (even elements) or NaNs carrying payload k (odd element k). No
// element sees two different NaN payloads (an Inf − Inf makes one too):
// which of two an add returns is up to the compiled instruction's operand
// order, which Go leaves to the compiler, and the old loops disagreed on
// it among themselves (see linalg.SumInto).
func specialVecs(rng *rand.Rand, m, dim int) [][]float64 {
	specials := []float64{math.Copysign(0, -1), 0, 5e-324, -3e-310}
	vs := make([][]float64, m)
	for j := range vs {
		vs[j] = make([]float64, dim)
		for k := range vs[j] {
			x := rng.NormFloat64()
			switch r := rng.Intn(10); {
			case k == 0:
				x = specials[0]
			case r < 2:
				x = specials[rng.Intn(len(specials))]
			case r < 3 && k%2 == 0:
				x = math.Inf(1 - 2*rng.Intn(2))
			case r < 3:
				x = math.Float64frombits(0x7ff8000000000000 | uint64(k))
			}
			vs[j][k] = x
		}
	}
	return vs
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for k := range want {
		if g, w := math.Float64bits(got[k]), math.Float64bits(want[k]); g != w {
			t.Fatalf("%s: element %d = %#x, old loop %#x", what, k, g, w)
		}
	}
}

// TestAggregateSumIntoBits: Aggregate, Encode and EncodePartial give the
// bits of the old per-worker loops for chosen sets of 1–9 workers.
func TestAggregateSumIntoBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n, dim = 9, 1<<12 + 3
	s := crScheme(t, n, 3, 1)
	coded := specialVecs(rng, n, dim)
	for size := 1; size <= n; size++ {
		chosen := bitset.FromSlice(rng.Perm(n)[:size])
		ghat, _, err := s.Aggregate(chosen, coded)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "Aggregate", ghat, oldAggregate(chosen, coded))
	}
	for i := 0; i < n; i++ {
		enc, err := s.Encode(i, coded)
		if err != nil {
			t.Fatal(err)
		}
		var local [][]float64
		for _, d := range s.Placement().Partitions(i) {
			local = append(local, coded[d])
		}
		sameBits(t, "Encode", enc, oldEncode(local))
		part, err := s.EncodePartial(i, local)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "EncodePartial", part, oldEncode(local))
	}
}

// BenchmarkAggregate times ĝ for 4 and 7 chosen workers at dim 2^19.
func BenchmarkAggregate(b *testing.B) {
	const n, dim = 8, 1 << 19
	p, err := placement.CR(n, 2)
	if err != nil {
		b.Fatal(err)
	}
	s := New(p, 1)
	coded := make([][]float64, n)
	for i := range coded {
		coded[i] = make([]float64, dim)
		for k := range coded[i] {
			coded[i][k] = float64(i*k%97) * 0.5
		}
	}
	for _, m := range []int{4, 7} {
		chosen := bitset.New(n)
		for i := 0; i < m; i++ {
			chosen.Add(i)
		}
		b.Run(fmt.Sprintf("chosen=%d", m), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(8 * dim * m))
			for i := 0; i < b.N; i++ {
				if _, _, err := s.Aggregate(chosen, coded); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
