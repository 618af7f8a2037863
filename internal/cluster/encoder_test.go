package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// refEncode is the zero-then-accumulate encoder the in-place ones
// replaced: out starts at +0 and takes coeffs[j]·local[j] (or local[j]
// when coeffs is nil) partition by partition.
func refEncode(local [][]float64, coeffs []float64) []float64 {
	out := make([]float64, len(local[0]))
	for j, g := range local {
		for k, x := range g {
			if coeffs == nil {
				out[k] += x
			} else {
				out[k] += coeffs[j] * x
			}
		}
	}
	return out
}

// encoderInputs returns c partitions of dim elements. Element 0 is −0 in
// every partition (its sum must come out +0), element 1 mixes ±0, and the
// rest carry subnormals, ±Inf and ordinary values.
func encoderInputs(rng *rand.Rand, c, dim int) [][]float64 {
	negZero := math.Copysign(0, -1)
	specials := []float64{negZero, 0, 5e-324, -3e-310, math.Inf(1), math.Inf(-1), 1e308}
	local := make([][]float64, c)
	for j := range local {
		g := make([]float64, dim)
		for k := range g {
			switch {
			case k == 0:
				g[k] = negZero
			case k == 1 && j%2 == 0:
				g[k] = negZero
			case k == 1:
				g[k] = 0
			case rng.Intn(8) == 0:
				g[k] = specials[rng.Intn(len(specials))]
			default:
				g[k] = rng.NormFloat64()
			}
		}
		local[j] = g
	}
	return local
}

func cloneVecs(vs [][]float64) [][]float64 {
	out := make([][]float64, len(vs))
	for i, v := range vs {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

// TestEncodersInPlaceMatchReference: SumEncoder and LinearEncoder write
// the zero-then-accumulate result bit for bit over local[0] and return
// local[0], for c = 1, 2, 3 and 5.
func TestEncodersInPlaceMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, c := range []int{1, 2, 3, 5} {
		// Positive coefficients keep c·(−0) = −0, so element 0 checks the
		// leading 0 + in both encoders.
		coeffs := make([]float64, c)
		for j := range coeffs {
			coeffs[j] = 0.5 + rng.Float64()
		}
		encoders := []struct {
			name   string
			enc    func([][]float64) ([]float64, error)
			coeffs []float64
		}{
			{"sum", SumEncoder(), nil},
			{"linear", LinearEncoder(coeffs), coeffs},
		}
		for _, e := range encoders {
			t.Run(fmt.Sprintf("%s/c=%d", e.name, c), func(t *testing.T) {
				local := encoderInputs(rng, c, 257)
				want := refEncode(local, e.coeffs)
				got, err := e.enc(local)
				if err != nil {
					t.Fatal(err)
				}
				if &got[0] != &local[0][0] || len(got) != len(local[0]) {
					t.Fatal("result does not alias local[0]")
				}
				for k := range want {
					if math.Float64bits(got[k]) != math.Float64bits(want[k]) &&
						!(math.IsNaN(got[k]) && math.IsNaN(want[k])) {
						t.Fatalf("element %d = %v (%#x), reference %v (%#x)", k,
							got[k], math.Float64bits(got[k]), want[k], math.Float64bits(want[k]))
					}
				}
				if math.Signbit(got[0]) {
					t.Fatal("a sum of −0s must come out +0, as from a zeroed buffer")
				}
			})
		}
	}
}

// TestEncoderSharedAcrossGoroutines: the encoders hold no state, so one
// encoder serves two workers at once. Run under -race.
func TestEncoderSharedAcrossGoroutines(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, enc := range []func([][]float64) ([]float64, error){SumEncoder(), LinearEncoder([]float64{2, -1})} {
		inputs := [][][]float64{encoderInputs(rng, 2, 1024), encoderInputs(rng, 2, 1024)}
		var wg sync.WaitGroup
		errs := make([]error, len(inputs))
		for i, base := range inputs {
			wg.Add(1)
			go func(i int, base [][]float64) {
				defer wg.Done()
				for r := 0; r < 50; r++ {
					local := cloneVecs(base)
					got, err := enc(local)
					if err != nil {
						errs[i] = err
						return
					}
					if &got[0] != &local[0][0] {
						errs[i] = fmt.Errorf("round %d: result does not alias local[0]", r)
						return
					}
				}
			}(i, base)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
}
