package main

import (
	"sync"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/model"
)

// span is one timed call into a layer. Track 0 is the master; worker i
// records on track i+1. The step and parent are assigned after the run,
// from the step cycles the Recover returns delimit.
type span struct {
	name       string
	track      int
	start, end time.Time
	step       int
	parent     string
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// recorder keeps spans in memory for one traced run. A nil *recorder
// records nothing, so the untraced run pays one branch per wrapped call.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) add(name string, track int, start time.Time) {
	if r == nil {
		return
	}
	end := time.Now()
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, track: track, start: start, end: end})
	r.mu.Unlock()
}

// tracedModel times GradInto and Loss of the wrapped model, the calls the
// cluster runtime makes. It embeds the interface, so every other method
// passes straight through.
type tracedModel struct {
	model.Model
	rec   *recorder
	track int
}

func (m tracedModel) GradInto(dst, params []float64, batch []dataset.Sample) {
	start := time.Now()
	m.Model.GradInto(dst, params, batch)
	m.rec.add("model.grad", m.track, start)
}

func (m tracedModel) Loss(params []float64, batch []dataset.Sample) float64 {
	start := time.Now()
	l := m.Model.Loss(params, batch)
	m.rec.add("model.loss", m.track, start)
	return l
}

// tracedClassifier keeps model.Classifier visible through the wrapper.
type tracedClassifier struct {
	tracedModel
	c model.Classifier
}

func (m tracedClassifier) Predict(params []float64, x []float64) int { return m.c.Predict(params, x) }

// wrapModel returns m timed on track, satisfying model.Classifier exactly
// when m does. A nil recorder returns m itself.
func wrapModel(m model.Model, rec *recorder, track int) model.Model {
	if rec == nil {
		return m
	}
	tm := tracedModel{Model: m, rec: rec, track: track}
	if c, ok := m.(model.Classifier); ok {
		return tracedClassifier{tracedModel: tm, c: c}
	}
	return tm
}

// wrapEncode times a worker's Encode func on its track.
func wrapEncode(enc func([][]float64) ([]float64, error), rec *recorder, track int) func([][]float64) ([]float64, error) {
	if rec == nil {
		return enc
	}
	return func(local [][]float64) ([]float64, error) {
		start := time.Now()
		out, err := enc(local)
		rec.add("encode", track, start)
		return out, err
	}
}

// stepClock is the untraced run's only hook: the time each Recover call
// returns, one per master step, plus a callback at each return.
type stepClock struct {
	returns []time.Time
	onStep  func(step int)
}

// tracedStrategy stamps every Recover return on the step clock and, when
// a recorder is set, records the call as a span.
type tracedStrategy struct {
	engine.Strategy
	clock *stepClock
	rec   *recorder
}

func (s *tracedStrategy) Recover(avail *bitset.Set, coded [][]float64) ([]float64, []int, error) {
	var start time.Time
	if s.rec != nil {
		start = time.Now()
	}
	ghat, parts, err := s.Strategy.Recover(avail, coded)
	s.rec.add("recover", 0, start)
	s.clock.returns = append(s.clock.returns, time.Now())
	if s.clock.onStep != nil {
		s.clock.onStep(len(s.clock.returns) - 1)
	}
	return ghat, parts, err
}

// wrapStrategy returns st with Recover hooked, satisfying exactly the
// optional engine interfaces st does: the master type-asserts for them,
// and hiding one would change the program (a hidden RandStateful drops
// the decoder's RNG position from checkpoints).
func wrapStrategy(st engine.Strategy, clock *stepClock, rec *recorder) engine.Strategy {
	t := &tracedStrategy{Strategy: st, clock: clock, rec: rec}
	dc, isDC := st.(engine.DecodeCacher)
	id, isID := st.(engine.IncrementalDecoder)
	rs, isRS := st.(engine.RandStateful)
	switch {
	case isDC && isID && isRS:
		return struct {
			*tracedStrategy
			engine.DecodeCacher
			engine.IncrementalDecoder
			engine.RandStateful
		}{t, dc, id, rs}
	case isDC && isID:
		return struct {
			*tracedStrategy
			engine.DecodeCacher
			engine.IncrementalDecoder
		}{t, dc, id}
	case isDC && isRS:
		return struct {
			*tracedStrategy
			engine.DecodeCacher
			engine.RandStateful
		}{t, dc, rs}
	case isID && isRS:
		return struct {
			*tracedStrategy
			engine.IncrementalDecoder
			engine.RandStateful
		}{t, id, rs}
	case isDC:
		return struct {
			*tracedStrategy
			engine.DecodeCacher
		}{t, dc}
	case isID:
		return struct {
			*tracedStrategy
			engine.IncrementalDecoder
		}{t, id}
	case isRS:
		return struct {
			*tracedStrategy
			engine.RandStateful
		}{t, rs}
	}
	return t
}
