package engine

import (
	"math"
	"math/rand"
	"testing"

	"isgc/internal/bitset"
	"isgc/internal/linalg"
)

// oldSyncRecover and oldISRecover are the zero-then-AddTo loops the
// Sync-SGD and IS-SGD Recover ran before they summed through
// linalg.SumInto.
func oldSyncRecover(coded [][]float64) []float64 {
	ghat := make([]float64, len(coded[0]))
	for _, v := range coded {
		linalg.AddTo(ghat, v)
	}
	return ghat
}

func oldISRecover(avail *bitset.Set, coded [][]float64) []float64 {
	var ghat []float64
	avail.Range(func(i int) bool {
		if ghat == nil {
			ghat = make([]float64, len(coded[i]))
		}
		linalg.AddTo(ghat, coded[i])
		return true
	})
	return ghat
}

// TestRecoverSumIntoBits: the IS-SGD and Sync-SGD Recover give the bits
// of the old loops. Element 0 is −0 in every vector; the rest mix ±0,
// subnormals, ordinary values and either ±Inf (even elements) or NaNs
// with payload k (odd element k), so no element meets two different NaN
// payloads (see linalg.SumInto).
func TestRecoverSumIntoBits(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, dim = 9, 1<<12 + 1
	coded := make([][]float64, n)
	for i := range coded {
		coded[i] = make([]float64, dim)
		for k := range coded[i] {
			x := rng.NormFloat64()
			switch r := rng.Intn(10); {
			case k == 0 || r == 0:
				x = math.Copysign(0, -1)
			case r == 1:
				x = []float64{0, 5e-324, -3e-310}[rng.Intn(3)]
			case r == 2 && k%2 == 0:
				x = math.Inf(1 - 2*rng.Intn(2))
			case r == 2:
				x = math.Float64frombits(0x7ff8000000000000 | uint64(k))
			}
			coded[i][k] = x
		}
	}
	check := func(what string, got, want []float64) {
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

	sync, _ := NewSyncSGD(n)
	all := bitset.New(n)
	for i := 0; i < n; i++ {
		all.Add(i)
	}
	ghat, _, err := sync.Recover(all, coded)
	if err != nil {
		t.Fatal(err)
	}
	check("Sync-SGD", ghat, oldSyncRecover(coded))

	is, _ := NewISSGD(n)
	for size := 1; size <= n; size++ {
		avail := bitset.FromSlice(rng.Perm(n)[:size])
		sparse := make([][]float64, n)
		avail.Range(func(i int) bool { sparse[i] = coded[i]; return true })
		ghat, parts, err := is.Recover(avail, sparse)
		if err != nil {
			t.Fatal(err)
		}
		if len(parts) != size {
			t.Fatalf("IS-SGD covers %d partitions, want %d", len(parts), size)
		}
		check("IS-SGD", ghat, oldISRecover(avail, sparse))
	}
}
