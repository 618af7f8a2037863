package main

import (
	"math"
	"reflect"
	"testing"
)

// The traced run must run the same program as the untraced one: equal
// records apart from Elapsed, and equal params up to float rounding (the
// mlp-train decoder may pick a different worker pair per step, which
// reassociates the gradient sum).
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, tc := range []struct {
		name  string
		steps int
		tol   float64
	}{
		{"wide-gather", 6, 0},
		{"mlp-train", 8, 1e-9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl, err := findWorkload(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := wl.build(7)
			if err != nil {
				t.Fatal(err)
			}
			sp.steps = tc.steps
			plain := runFleet(sp, false, t.TempDir())
			traced := runFleet(sp, true, t.TempDir())
			for _, r := range []*rep{plain, traced} {
				if r.err != nil {
					t.Fatalf("traced=%v: %v", r.traced, r.err)
				}
				if len(r.records) != tc.steps || len(r.returns) != tc.steps {
					t.Fatalf("traced=%v: %d records and %d Recover returns, want %d", r.traced, len(r.records), len(r.returns), tc.steps)
				}
			}
			for i := range plain.records {
				a, b := plain.records[i], traced.records[i]
				if !near(a.Loss, b.Loss, tc.tol) {
					t.Errorf("step %d: loss %v untraced, %v traced", i, a.Loss, b.Loss)
				}
				a.Elapsed, b.Elapsed, a.Loss, b.Loss = 0, 0, 0, 0
				if !reflect.DeepEqual(a, b) {
					t.Errorf("step %d: record %+v untraced, %+v traced", i, a, b)
				}
			}
			if len(plain.params) != len(traced.params) {
				t.Fatalf("params dim %d untraced, %d traced", len(plain.params), len(traced.params))
			}
			for i := range plain.params {
				if !near(plain.params[i], traced.params[i], tc.tol) {
					t.Fatalf("param %d: %v untraced, %v traced", i, plain.params[i], traced.params[i])
				}
			}
			if len(traced.spans) == 0 || len(plain.spans) != 0 {
				t.Fatalf("%d spans traced, %d untraced; want some and none", len(traced.spans), len(plain.spans))
			}
		})
	}
}

func near(a, b, tol float64) bool {
	if tol == 0 {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// In a traced run every steady step's cycle covers its gather, Recover and
// the loss outside the gather, on both step loops.
func TestCoverageOnBothLoops(t *testing.T) {
	for _, name := range []string{"wide-gather", "pipelined-durable"} {
		wl, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		sp, err := wl.build(3)
		if err != nil {
			t.Fatal(err)
		}
		sp.steps = 12
		r := runFleet(sp, true, t.TempDir())
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		r.gathers = assignSteps(r)
		if len(r.gathers) != sp.steps {
			t.Fatalf("%s: %d gather spans, want %d", name, len(r.gathers), sp.steps)
		}
		if _, err := perLayer(sp, []*rep{r}, []*rep{r}, wireCost{}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if err := wl.check(sp, []*rep{r}); err != nil {
			t.Errorf("%s output check: %v", name, err)
		}
	}
}
