package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/cluster"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/straggler"
	"isgc/internal/trace"
)

// fleetSpec is one training run's full input: everything is generated
// from the seed before the clock starts.
type fleetSpec struct {
	newStrategy  func() (engine.Strategy, error)
	model        model.Model
	data         *dataset.Dataset
	batch        int
	lr           float64
	w            int
	steps        int
	seed         int64
	pipeline     bool
	staleness    int
	gatherShards int               // the workers' binaryv2 lane proposal; 0 or 1 is a single lane
	delays       []straggler.Model // per worker; nil entries inject nothing
	ckptEvery    int               // 0 disables checkpoints
	warmup       int               // steps after step 0 left out of the rates
}

// rep is what one training run yields. The traced fields are zero on an
// untraced run.
type rep struct {
	traced  bool
	workers int
	start   time.Time   // just before NewMaster
	returns []time.Time // Recover return of each step
	records []trace.StepRecord
	params  []float64
	err     error
	// memWarm and memEnd are read at the Recover returns of step warmup
	// and of the last step.
	memWarm, memEnd runtime.MemStats

	// restored is the checkpoint store's Latest params after the run.
	restored    []float64
	restoredErr error

	spans       []span
	gathers     []span // derived from the records, one per step
	attribution trace.AttributionReport
	rejoins     int
	malformed   int
	sentBytes   uint64
	subFrames   uint64
	ckptWrites  uint64
	ckptBytes   uint64
}

// runFleet trains once over loopback TCP: one master and n workers, all in
// this process. With traced set it wraps the layers' public calls and
// attaches the instruments the program exposes; otherwise its only hook
// is the Recover return stamp.
func runFleet(sp *fleetSpec, traced bool, workdir string) *rep {
	r := &rep{traced: traced}
	st, err := sp.newStrategy()
	if err != nil {
		r.err = err
		return r
	}
	n := st.N()
	r.workers = n
	parts, err := sp.data.Partition(n)
	if err != nil {
		r.err = err
		return r
	}
	loaders := make([][]*dataset.Loader, n)
	for i := range loaders {
		for _, d := range st.Partitions(i) {
			// The seed depends on the partition alone, so replicas agree.
			l, err := dataset.NewLoader(parts[d], sp.batch, sp.seed+int64(d)*7919)
			if err != nil {
				r.err = err
				return r
			}
			loaders[i] = append(loaders[i], l)
		}
	}

	var rec *recorder
	var mm *cluster.MasterMetrics
	var ev *events.Log
	wms := make([]*cluster.WorkerMetrics, n)
	if traced {
		rec = &recorder{spans: make([]span, 0, 64*sp.steps)}
		mm = cluster.NewMasterMetrics(metrics.NewRegistry())
		for i := range wms {
			wms[i] = cluster.NewWorkerMetrics(metrics.NewRegistry())
		}
		ev = events.New(events.Config{Writer: &saveSink{rec: rec}, RingSize: -1})
	}
	var store *checkpoint.Store
	if sp.ckptEvery > 0 {
		dir, err := os.MkdirTemp(workdir, "ckpt-")
		if err != nil {
			r.err = err
			return r
		}
		defer os.RemoveAll(dir)
		if store, err = checkpoint.NewStore(filepath.Join(dir, "master"), 0); err != nil {
			r.err = err
			return r
		}
	}

	clock := &stepClock{returns: make([]time.Time, 0, sp.steps)}
	clock.onStep = func(step int) {
		switch step {
		case sp.warmup:
			runtime.ReadMemStats(&r.memWarm)
		case sp.steps - 1:
			runtime.ReadMemStats(&r.memEnd)
		}
	}
	runtime.GC()
	r.start = time.Now()
	master, err := cluster.NewMaster(cluster.MasterConfig{
		Addr:            "127.0.0.1:0",
		Strategy:        wrapStrategy(st, clock, rec),
		Model:           wrapModel(sp.model, rec, 0),
		Data:            sp.data,
		LearningRate:    sp.lr,
		W:               sp.w,
		MaxSteps:        sp.steps,
		Seed:            sp.seed,
		Pipeline:        sp.pipeline,
		Staleness:       sp.staleness,
		Checkpoint:      store,
		CheckpointEvery: sp.ckptEvery,
		Metrics:         mm,
		Events:          ev,
	})
	if err != nil {
		r.err = err
		return r
	}
	// Workers register from their own goroutines: NewWorker completes the
	// handshake, which needs Run's accept loop.
	var wg sync.WaitGroup
	werrs := make([]error, n)
	for i := 0; i < n; i++ {
		var delay straggler.Model
		if i < len(sp.delays) {
			delay = sp.delays[i]
		}
		cfg := cluster.WorkerConfig{
			Addr:         master.Addr(),
			ID:           i,
			Partitions:   st.Partitions(i),
			Loaders:      loaders[i],
			Model:        wrapModel(sp.model, rec, i+1),
			Encode:       wrapEncode(cluster.SumEncoder(), rec, i+1),
			Delay:        delay,
			DelaySeed:    sp.seed + int64(i) + 1,
			GatherShards: sp.gatherShards,
			Metrics:      wms[i],
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wk, err := cluster.NewWorker(cfg)
			if err == nil {
				_, err = wk.Run()
			}
			werrs[i] = err
		}(i)
	}
	res, err := master.Run()
	wg.Wait()
	r.err = errors.Join(append([]error{err}, werrs...)...)
	r.returns = clock.returns
	if res != nil {
		r.records = res.Run.Records
		r.params = res.Params
	}
	if store != nil {
		var cst checkpoint.State
		if _, err := store.Latest(&cst); err != nil {
			r.restoredErr = err
		} else if !cst.Completed || cst.Step != sp.steps {
			r.restoredErr = fmt.Errorf("latest checkpoint is step %d completed=%v, want step %d completed", cst.Step, cst.Completed, sp.steps)
		} else {
			r.restored = checkpoint.BytesToFloat64s(cst.Params)
		}
	}
	if traced {
		r.spans = rec.spans
		r.attribution = master.AttributionReport()
		r.rejoins = master.Rejoins()
		r.malformed = master.MalformedGradients()
		r.sentBytes = mm.SentBytes.Value()
		for _, wm := range wms {
			r.sentBytes += wm.SentBytes.Value()
		}
		r.subFrames = mm.SubFrames.Value()
		r.ckptWrites = mm.CheckpointWrites.Value()
		r.ckptBytes = mm.CheckpointBytes.Value()
	}
	return r
}

// saveSink times checkpoint writes from the master's event stream: the
// master emits step_completed right before it appends the record and
// saves, and checkpoint_written once Save has returned. The bracket is the
// checkpoint write as the master's loop pays it.
type saveSink struct {
	rec  *recorder
	mark time.Time
}

var (
	evStepCompleted = []byte(`"type":"master.step_completed"`)
	evCkptWritten   = []byte(`"type":"master.checkpoint_written"`)
)

// Write receives one JSONL event; the log serializes the calls.
func (s *saveSink) Write(p []byte) (int, error) {
	now := time.Now()
	switch {
	case bytes.Contains(p, evStepCompleted):
		s.mark = now
	case bytes.Contains(p, evCkptWritten) && !s.mark.IsZero():
		s.rec.mu.Lock()
		s.rec.spans = append(s.rec.spans, span{name: "checkpoint.save", start: s.mark, end: now})
		s.rec.mu.Unlock()
		s.mark = time.Time{}
	}
	return len(p), nil
}
