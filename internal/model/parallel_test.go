package model

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

func testModels() []Model {
	return []Model{
		LinearRegression{Features: 5},
		LogisticRegression{Features: 5},
		SoftmaxRegression{Features: 5, Classes: 3},
		MLP{Features: 5, Hidden: 7, Classes: 3},
	}
}

// TestParallelGradMatchesSequential: the sharded kernel must agree with
// the sequential kernel to FP-reassociation tolerance, for every model
// and several shard counts.
func TestParallelGradMatchesSequential(t *testing.T) {
	for _, m := range testModels() {
		rng := rand.New(rand.NewSource(7))
		params := m.InitParams(3)
		batch := randomBatch(rng, 33, 5, 3)
		want := m.Grad(params, batch)
		wantLoss := m.Loss(params, batch)
		for _, par := range []int{2, 3, 4, 8} {
			p := NewParallelGrad(par)
			got := make([]float64, m.Dim())
			p.GradInto(got, params, m, batch)
			for j := range want {
				if math.Abs(got[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
					t.Errorf("%v par=%d: grad[%d] = %v, want %v", m, par, j, got[j], want[j])
					break
				}
			}
			if gotLoss := p.Loss(params, m, batch); math.Abs(gotLoss-wantLoss) > 1e-12*(1+math.Abs(wantLoss)) {
				t.Errorf("%v par=%d: loss = %v, want %v", m, par, gotLoss, wantLoss)
			}
			p.Close()
		}
	}
}

// TestParallelGradDeterministic: for a fixed shard count the sharded
// result must be bit-identical across repeated runs — the merge order is
// shard order, never goroutine-completion order.
func TestParallelGradDeterministic(t *testing.T) {
	m := MLP{Features: 5, Hidden: 7, Classes: 3}
	rng := rand.New(rand.NewSource(11))
	params := m.InitParams(5)
	batch := randomBatch(rng, 29, 5, 3)
	p := NewParallelGrad(4)
	defer p.Close()
	ref := make([]float64, m.Dim())
	p.GradInto(ref, params, m, batch)
	refLoss := p.Loss(params, m, batch)
	for run := 0; run < 20; run++ {
		got := make([]float64, m.Dim())
		p.GradInto(got, params, m, batch)
		for j := range ref {
			if got[j] != ref[j] {
				t.Fatalf("run %d: grad[%d] = %v, want bit-identical %v", run, j, got[j], ref[j])
			}
		}
		if l := p.Loss(params, m, batch); l != refLoss {
			t.Fatalf("run %d: loss = %v, want bit-identical %v", run, l, refLoss)
		}
	}
}

// TestParallelGradNested: Run inside Run must not deadlock (tasks that
// find no idle worker execute inline on the submitter).
func TestParallelGradNested(t *testing.T) {
	p := NewParallelGrad(2)
	defer p.Close()
	// The inner tasks of one outer task run concurrently, so they add
	// into their shared slot atomically.
	sum := make([]atomic.Int64, 4)
	outer := make([]func(), 4)
	for i := range outer {
		i := i
		outer[i] = func() {
			inner := make([]func(), 4)
			for j := range inner {
				j := j
				inner[j] = func() { sum[i].Add(int64(j)) }
			}
			p.Run(inner...)
		}
	}
	p.Run(outer...)
	for i := range sum {
		if s := sum[i].Load(); s != 6 {
			t.Fatalf("sum[%d] = %d, want 6", i, s)
		}
	}
}

// TestNilParallelGrad: the nil pool is the sequential path.
func TestNilParallelGrad(t *testing.T) {
	var p *ParallelGrad
	if p.Par() != 1 {
		t.Fatalf("nil pool Par() = %d", p.Par())
	}
	p.Close() // must not panic
	m := LinearRegression{Features: 3}
	rng := rand.New(rand.NewSource(1))
	params := m.InitParams(2)
	batch := randomBatch(rng, 9, 3, 2)
	got := make([]float64, m.Dim())
	p.GradInto(got, params, m, batch)
	want := m.Grad(params, batch)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("nil pool grad[%d] = %v, want %v", j, got[j], want[j])
		}
	}
	if NewParallelGrad(1) != nil {
		t.Fatal("NewParallelGrad(1) should be the nil sequential pool")
	}
}

// TestGradIntoAllocationFree: after warm-up the sequential GradInto
// kernel must not allocate.
func TestGradIntoAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is unreliable under -race")
	}
	for _, m := range testModels() {
		rng := rand.New(rand.NewSource(2))
		params := m.InitParams(4)
		batch := randomBatch(rng, 16, 5, 3)
		dst := make([]float64, m.Dim())
		m.GradInto(dst, params, batch) // warm the scratch pool
		allocs := testing.AllocsPerRun(20, func() {
			m.GradInto(dst, params, batch)
		})
		if allocs > 0 {
			t.Errorf("%v: GradInto allocates %v objects/op after warm-up", m, allocs)
		}
	}
}
