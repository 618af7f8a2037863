package main

import (
	"math"
	"testing"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
)

// Stand-ins for the optional Strategy capabilities, combined below with a
// real strategy into every subset.
type fakeDC struct{}

func (fakeDC) EnableDecodeCache(int)                   {}
func (fakeDC) SetDecodeCacheHooks(_, _ func())         {}
func (fakeDC) DecodeCacheStats() (hits, misses uint64) { return 0, 0 }

type fakeID struct{}

func (fakeID) EnableIncrementalDecode()        {}
func (fakeID) SetIncrementalHooks(_, _ func()) {}
func (fakeID) IncrementalDecodeCounts() (repairs, fallbacks, fullSolves, cacheSyncs uint64) {
	return 0, 0, 0, 0
}

type fakeRS struct{}

func (fakeRS) RandState() (int64, uint64)     { return 0, 0 }
func (fakeRS) RestoreRandState(int64, uint64) {}

func capabilities(st engine.Strategy) [3]bool {
	_, dc := st.(engine.DecodeCacher)
	_, id := st.(engine.IncrementalDecoder)
	_, rs := st.(engine.RandStateful)
	return [3]bool{dc, id, rs}
}

func TestWrapStrategyKeepsExactlyTheOptionalInterfaces(t *testing.T) {
	base, err := engine.NewISSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	real, err := crISGC(4, 2, 1)()
	if err != nil {
		t.Fatal(err)
	}
	var dc fakeDC
	var id fakeID
	var rs fakeRS
	cases := []engine.Strategy{
		base,
		real,
		struct {
			engine.Strategy
			fakeDC
		}{base, dc},
		struct {
			engine.Strategy
			fakeID
		}{base, id},
		struct {
			engine.Strategy
			fakeRS
		}{base, rs},
		struct {
			engine.Strategy
			fakeDC
			fakeID
		}{base, dc, id},
		struct {
			engine.Strategy
			fakeDC
			fakeRS
		}{base, dc, rs},
		struct {
			engine.Strategy
			fakeID
			fakeRS
		}{base, id, rs},
		struct {
			engine.Strategy
			fakeDC
			fakeID
			fakeRS
		}{base, dc, id, rs},
	}
	for i, st := range cases {
		for _, rec := range []*recorder{nil, {}} {
			got := capabilities(wrapStrategy(st, &stepClock{}, rec))
			if want := capabilities(st); got != want {
				t.Errorf("case %d (traced=%v): wrapper has DecodeCacher/IncrementalDecoder/RandStateful = %v, wrapped value %v",
					i, rec != nil, got, want)
			}
		}
	}
}

// The wrapper must route the optional methods to the wrapped strategy: a
// checkpoint taken through it has to carry the decoder's real RNG position.
func TestWrapStrategyForwardsRandState(t *testing.T) {
	p, err := placement.CR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := engine.NewISGC(isgc.New(p, 5))
	if err != nil {
		t.Fatal(err)
	}
	clock := &stepClock{}
	rec := &recorder{}
	wrapped := wrapStrategy(inner, clock, rec).(engine.RandStateful)
	wrapped.RestoreRandState(9, 3)
	seed, draws := inner.(engine.RandStateful).RandState()
	if seed != 9 || draws != 3 {
		t.Fatalf("inner RNG at (%d, %d) after restoring (9, 3) through the wrapper", seed, draws)
	}
	if s, d := wrapped.RandState(); s != seed || d != draws {
		t.Fatalf("wrapper reports RNG (%d, %d), inner (%d, %d)", s, d, seed, draws)
	}
}

func TestWrapModelKeepsExactlyClassifier(t *testing.T) {
	for _, m := range []model.Model{model.MLP{Features: 3, Hidden: 4, Classes: 2}, model.Constant{D: 8}} {
		_, want := m.(model.Classifier)
		_, got := wrapModel(m, &recorder{}, 0).(model.Classifier)
		if got != want {
			t.Errorf("%v: wrapper is a Classifier = %v, wrapped model %v", m, got, want)
		}
	}
}

func TestWrapModelTimesWithoutChangingResults(t *testing.T) {
	sp, err := mlpTrain(3)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{}
	traced := wrapModel(sp.model, rec, 2)
	params := sp.model.InitParams(3)
	batch := []dataset.Sample{sp.data.At(0), sp.data.At(1), sp.data.At(2)}
	want := make([]float64, sp.model.Dim())
	got := make([]float64, sp.model.Dim())
	sp.model.GradInto(want, params, batch)
	traced.GradInto(got, params, batch)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("traced GradInto element %d = %v, want %v", i, got[i], want[i])
		}
	}
	if l, w := traced.Loss(params, batch), sp.model.Loss(params, batch); l != w {
		t.Fatalf("traced Loss = %v, want %v", l, w)
	}
	if len(rec.spans) != 2 || rec.spans[0].name != "model.grad" || rec.spans[1].name != "model.loss" || rec.spans[0].track != 2 {
		t.Fatalf("recorded spans %+v, want model.grad then model.loss on track 2", rec.spans)
	}
}
