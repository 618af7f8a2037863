package cluster

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"isgc/internal/checkpoint"
	"isgc/internal/dataset"
	"isgc/internal/events"
	"isgc/internal/model"
	"isgc/internal/randsrc"
	"isgc/internal/straggler"
)

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// Addr is the master's address.
	Addr string
	// ID is this worker's index in [0, n).
	ID int
	// Partitions lists the dataset partitions this worker stores
	// (Strategy.Partitions(ID) on the master side).
	Partitions []int
	// Loaders yields mini-batches per stored partition, index-aligned
	// with Partitions. Loader seeds must follow the shared discipline so
	// partition replicas see identical batches.
	Loaders []*dataset.Loader
	// Model computes gradients.
	Model model.Model
	// Encode combines the worker's per-partition gradients into the coded
	// upload: it receives the gradients aligned with Partitions. For
	// IS-GC this is the plain sum; for classic GC a fixed linear
	// combination (use CodedEncoder helpers).
	Encode func(localGrads [][]float64) ([]float64, error)
	// Delay optionally injects an artificial straggler delay before each
	// upload, sampled from the model (nil = none). This is how the
	// integration tests and the distributed example reproduce the paper's
	// delay injection over real sockets.
	Delay straggler.Model
	// DelaySeed seeds the delay sampling.
	DelaySeed int64
	// ComputePar sizes the worker's gradient compute pool: 0 picks
	// GOMAXPROCS, 1 forces sequential, >1 is explicit. With several
	// partitions the pool computes them concurrently (bit-identical to
	// sequential, so replicas on hosts with different settings still
	// agree); with a single partition it shards the batch instead, which
	// reassociates the mean's floating-point sum — safe because a
	// single-partition placement has no replicas to disagree with.
	ComputePar int
	// Fault optionally injects crash/drop/disconnect faults per step
	// (nil = none) — the deterministic worker-death counterpart of Delay,
	// used by integration tests and examples to reproduce machine loss.
	Fault straggler.Fault
	// FaultSeed seeds the fault sampling.
	FaultSeed int64
	// HeartbeatInterval is the period of MsgHeartbeat liveness pings sent
	// from a dedicated goroutine, so the master can tell "slow" from
	// "hung" even while this worker computes or sleeps (default 1s;
	// negative disables).
	HeartbeatInterval time.Duration
	// ReconnectTimeout, when positive, makes a worker whose connection
	// drops (or that injects FaultDisconnect) redial the master with
	// exponential backoff for up to this long, re-registering via
	// MsgHello with its last completed step. 0 disables reconnection:
	// a dropped connection ends Run.
	ReconnectTimeout time.Duration
	// DialTimeout bounds the initial connection (default 5s).
	DialTimeout time.Duration
	// Checkpoint, when non-nil, is where Stop persists the worker's
	// resumable state (RNG stream positions, step counter). Give each
	// worker its own store directory — a WorkerState names a single ID.
	Checkpoint *checkpoint.Store
	// Restore loads the latest WorkerState from Checkpoint before
	// registering, so delay/fault sampling resumes bit-identically and the
	// hello reports the pre-restart step count.
	Restore bool
	// GatherShards, when > 1, proposes the dim-sharded upload: the worker
	// opens that many parallel lane connections and splits every gradient
	// into contiguous sub-frames sent concurrently, one per lane. The
	// master may grant fewer lanes. 0 or 1 uploads each gradient as one
	// whole-vector sub-frame on the primary connection (the default).
	GatherShards int
	// Metrics, when non-nil, receives live instrumentation (compute time,
	// upload bytes, reconnects); serve it via the admin package.
	Metrics *WorkerMetrics
	// Events, when non-nil, receives the worker's structured event stream
	// (connects, injected faults, reconnects). Nil disables it.
	Events *events.Log
	// Timeline, when non-nil, collects this worker's local compute and
	// injected-delay spans for Chrome trace export. Nil disables it.
	Timeline *events.Timeline
}

// Worker trains on its partitions and uploads coded gradients until the
// master says stop.
type Worker struct {
	cfg WorkerConfig
	// connMu guards the w.c pointer itself: reconnect (Run's goroutine)
	// replaces it while Stop (signal-handler goroutine) reads it to close.
	// It also guards lanes, the extra gather-lane connections (empty on a
	// single-lane grant); shards is the granted lane count including the
	// primary.
	connMu sync.Mutex
	c      *conn
	lanes  []*conn
	shards int
	// delaySrc/faultSrc are the counting sources behind rng/frng, kept so
	// Stop can serialize the stream positions and a restored worker can
	// land on the very next delay/fault draw.
	delaySrc *randsrc.Source
	faultSrc *randsrc.Source
	rng      *rand.Rand
	frng     *rand.Rand
	stopHB   chan struct{}
	stopping atomic.Bool
	stopOnce sync.Once

	// pool and localBuf make computeStep allocation-free: one long-lived
	// compute pool and one reusable gradient buffer per stored partition.
	pool     *model.ParallelGrad
	localBuf [][]float64
	tasks    []func()

	// faultedThrough is the highest step the fault model has been
	// consulted for. A rejoining worker is re-handed the in-flight step by
	// the master; re-rolling the fault on that re-delivery would make
	// DisconnectAt tear the fresh connection down again immediately — a
	// rejoin storm that lasts until the master advances past the step.
	faultedThrough int

	// steps, reconnects, and connected are atomics because the admin
	// server's Health snapshot reads them while Run mutates.
	steps      atomic.Int64
	reconnects atomic.Int64
	connected  atomic.Bool
	// jobGone latches a MsgJobGone terminal reject: the job this worker
	// was serving no longer exists, so reconnection stopped early. Fleet
	// agents read it via JobGone() to return the worker to the pool.
	jobGone atomic.Bool
}

// JobGone reports whether the worker's run ended on a MsgJobGone terminal
// reject — the master (or its tombstone) said the job no longer exists.
// Valid after Run returns; a fleet agent uses it to return to the pool
// instead of treating the exit as a completed run.
func (w *Worker) JobGone() bool { return w.jobGone.Load() }

// Health returns a point-in-time snapshot for the worker's /healthz
// payload. Safe to call from any goroutine.
func (w *Worker) Health() WorkerHealth {
	return WorkerHealth{
		ID:          w.cfg.ID,
		Connected:   w.connected.Load(),
		StepsServed: w.steps.Load(),
		Reconnects:  w.reconnects.Load(),
	}
}

// NewWorker connects to the master and registers.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	switch {
	case cfg.ID < 0:
		return nil, fmt.Errorf("cluster: negative worker id %d", cfg.ID)
	case len(cfg.Partitions) == 0:
		return nil, fmt.Errorf("cluster: worker %d has no partitions", cfg.ID)
	case len(cfg.Loaders) != len(cfg.Partitions):
		return nil, fmt.Errorf("cluster: worker %d: %d loaders for %d partitions", cfg.ID, len(cfg.Loaders), len(cfg.Partitions))
	case cfg.Model == nil:
		return nil, fmt.Errorf("cluster: worker %d: nil model", cfg.ID)
	case cfg.Encode == nil:
		return nil, fmt.Errorf("cluster: worker %d: nil encoder", cfg.ID)
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	if cfg.GatherShards < 0 || cfg.GatherShards > maxGatherShards {
		return nil, fmt.Errorf("cluster: worker %d: gather shards %d outside [0, %d]", cfg.ID, cfg.GatherShards, maxGatherShards)
	}
	if cfg.GatherShards == 0 {
		cfg.GatherShards = 1
	}

	// Load any resumable state before registering, so the hello reports the
	// restored step count and the master's rejoin path skips completed work.
	var resumed *checkpoint.WorkerState
	if cfg.Restore && cfg.Checkpoint != nil {
		var st checkpoint.WorkerState
		switch _, err := cfg.Checkpoint.Latest(&st); {
		case err == nil:
			if st.ID != cfg.ID {
				return nil, fmt.Errorf("cluster: worker %d: checkpoint belongs to worker %d", cfg.ID, st.ID)
			}
			resumed = &st
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Nothing saved yet — a cold start with -restore is fine.
		default:
			return nil, fmt.Errorf("cluster: worker %d: restore: %w", cfg.ID, err)
		}
	}
	startSteps := 0
	if resumed != nil {
		startSteps = int(resumed.Steps)
	}

	raw, err := dialWithRetry(cfg.Addr, cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	c := newConn(raw, defaultWriteTimeout, cfg.Metrics.sentCounter())
	ack, err := clientHello(c, cfg.ID, startSteps, cfg.GatherShards)
	if err != nil {
		_ = c.close()
		return nil, err
	}
	lanes, shards, err := dialLanes(ack, cfg)
	if err != nil {
		_ = c.close()
		return nil, err
	}
	cfg.Metrics.markWire(WireBinary2)
	cfg.Metrics.setGatherLanes(shards)
	w := &Worker{
		cfg:            cfg,
		c:              c,
		lanes:          lanes,
		shards:         shards,
		delaySrc:       randsrc.New(cfg.DelaySeed),
		faultSrc:       randsrc.New(cfg.FaultSeed),
		faultedThrough: -1,
		pool:           model.NewParallelGrad(cfg.ComputePar),
		localBuf:       make([][]float64, len(cfg.Partitions)),
		tasks:          make([]func(), len(cfg.Partitions)),
	}
	if resumed != nil {
		// Reposition the streams under the checkpointed seeds (which win
		// over the configured ones — the run's streams must continue).
		w.delaySrc.Restore(resumed.DelaySeed, resumed.DelayDraws)
		w.faultSrc.Restore(resumed.FaultSeed, resumed.FaultDraws)
		w.faultedThrough = resumed.FaultedThrough
		w.steps.Store(resumed.Steps)
	}
	w.rng = w.delaySrc.Rand()
	w.frng = w.faultSrc.Rand()
	for j := range w.localBuf {
		w.localBuf[j] = make([]float64, cfg.Model.Dim())
	}
	cfg.Metrics.setComputeShards(w.pool.Par())
	w.setConnected(true)
	w.startHeartbeat()
	cfg.Events.Info("worker.connected", "registered with master", events.NoStep, cfg.ID,
		events.Fields{"addr": cfg.Addr, "lanes": shards})
	if resumed != nil {
		cfg.Events.Info("worker.restored", "resumed from checkpoint", events.NoStep, cfg.ID,
			events.Fields{"steps": resumed.Steps, "delay_draws": resumed.DelayDraws, "fault_draws": resumed.FaultDraws})
	}
	cfg.Timeline.SetThreadName(cfg.ID+1, fmt.Sprintf("worker %d", cfg.ID))
	return w, nil
}

// dialLanes opens the extra gather-lane connections the master's ack
// granted — lanes 1..shards-1, each attached via laneHello under the
// master's generation — and returns them with the effective lane count
// (primary included). A single-lane grant has no extra lanes.
func dialLanes(ack *Envelope, cfg WorkerConfig) ([]*conn, int, error) {
	shards := ack.Shards
	if shards > cfg.GatherShards {
		shards = cfg.GatherShards // never open more lanes than configured
	}
	if shards < 1 {
		shards = 1
	}
	lanes := make([]*conn, 0, shards-1)
	for lane := 1; lane < shards; lane++ {
		raw, err := dialWithRetry(cfg.Addr, cfg.DialTimeout)
		if err != nil {
			closeConns(lanes)
			return nil, 0, fmt.Errorf("cluster: worker %d lane %d: %w", cfg.ID, lane, err)
		}
		lc := newConn(raw, defaultWriteTimeout, cfg.Metrics.sentCounter())
		if err := laneHello(lc, cfg.ID, lane, ack.Gen); err != nil {
			_ = lc.close()
			closeConns(lanes)
			return nil, 0, fmt.Errorf("cluster: worker %d: %w", cfg.ID, err)
		}
		lanes = append(lanes, lc)
	}
	return lanes, shards, nil
}

// closeConns closes every connection in cs, tolerating nils.
func closeConns(cs []*conn) {
	for _, c := range cs {
		if c != nil {
			_ = c.close()
		}
	}
}

// Stop makes the worker leave the fleet gracefully: reconnection is
// suppressed, the blocked recv is unstuck by closing the connection, and —
// when a checkpoint store is configured — Run persists the worker's RNG
// positions and progress on its way out. Safe to call from a signal-handler
// goroutine; idempotent.
func (w *Worker) Stop() {
	w.stopOnce.Do(func() {
		w.stopping.Store(true)
		w.connMu.Lock()
		c := w.c
		lanes := w.lanes
		w.connMu.Unlock()
		_ = c.close()
		closeConns(lanes)
	})
}

// saveState persists the worker's resumable position. Failures are logged,
// never fatal: a worker that cannot checkpoint still exits cleanly.
func (w *Worker) saveState() {
	if w.cfg.Checkpoint == nil {
		return
	}
	ds, dd := w.delaySrc.State()
	fs, fd := w.faultSrc.State()
	st := checkpoint.WorkerState{
		Version:        checkpoint.Version,
		ID:             w.cfg.ID,
		Steps:          w.steps.Load(),
		DelaySeed:      ds,
		DelayDraws:     dd,
		FaultSeed:      fs,
		FaultDraws:     fd,
		FaultedThrough: w.faultedThrough,
	}
	if _, err := w.cfg.Checkpoint.Save(int(st.Steps), st); err != nil {
		w.cfg.Events.Warn("worker.checkpoint_error", err.Error(), events.NoStep, w.cfg.ID, nil)
		return
	}
	w.cfg.Events.Info("worker.checkpoint_written", "resumable state persisted", events.NoStep, w.cfg.ID,
		events.Fields{"steps": st.Steps, "delay_draws": dd, "fault_draws": fd})
}

// setConnected keeps the atomic state and the gauge in lockstep.
func (w *Worker) setConnected(up bool) {
	w.connected.Store(up)
	w.cfg.Metrics.setConnected(up)
}

// Run processes step requests until the master stops the worker or the
// connection drops (and, with ReconnectTimeout set, cannot be re-dialed).
// It returns the number of steps served.
func (w *Worker) Run() (int, error) {
	defer func() {
		w.stopHeartbeat()
		w.connMu.Lock()
		c, lanes := w.c, w.lanes
		w.connMu.Unlock()
		_ = c.close()
		closeConns(lanes)
		w.setConnected(false)
		w.pool.Close()
		if w.stopping.Load() {
			// Graceful shutdown: leave a resumable snapshot behind.
			w.saveState()
		}
	}()
	for {
		e, err := w.c.recv()
		if err != nil {
			// Stop() closed the connection under us, the master tore it
			// down after MsgStop raced us, or a genuine failure; try to
			// rejoin, else we are done.
			if w.reconnect() {
				continue
			}
			return int(w.steps.Load()), nil
		}
		switch e.Kind {
		case MsgStop:
			return int(w.steps.Load()), nil
		case MsgStep:
			action := straggler.FaultNone
			if w.cfg.Fault != nil && e.Step > w.faultedThrough {
				action = w.cfg.Fault.At(e.Step, w.frng)
				w.faultedThrough = e.Step
			}
			if action == straggler.FaultCrash {
				// Die abruptly — no farewell message, exactly like a
				// killed process; the master learns via the closed socket.
				w.cfg.Events.Warn("worker.crash_injected", "injected crash; dying without farewell",
					e.Step, w.cfg.ID, nil)
				return int(w.steps.Load()), nil
			}
			if action == straggler.FaultDisconnect {
				w.cfg.Events.Warn("worker.disconnect_injected", "injected disconnect; will redial",
					e.Step, w.cfg.ID, nil)
				w.stopHeartbeat()
				_ = w.c.close()
				w.setConnected(false)
				if w.reconnect() {
					continue
				}
				return int(w.steps.Load()), nil
			}
			coded, computeStart, computeDur, err := w.computeStep(e.Step, e.Params)
			if err != nil {
				return int(w.steps.Load()), err
			}
			// The step is served once its gradient is computed, whether or
			// not the upload lands (an injected drop, or a send that loses
			// the race with the master's stop): counted here, right after
			// computeStep observed the compute time, the step counter and
			// the compute histogram always agree.
			w.steps.Add(1)
			w.cfg.Metrics.markStep()
			w.cfg.Timeline.Add(events.Span{Name: "compute", Cat: "compute", TID: w.cfg.ID + 1,
				Start: computeStart, Dur: computeDur, Args: map[string]any{"step": e.Step}})
			if w.cfg.Delay != nil {
				delayStart := time.Now()
				time.Sleep(w.cfg.Delay.Sample(w.rng))
				w.cfg.Timeline.Add(events.Span{Name: "delay", Cat: "delay", TID: w.cfg.ID + 1,
					Start: delayStart, Dur: time.Since(delayStart), Args: map[string]any{"step": e.Step}})
			}
			if action == straggler.FaultDrop {
				w.cfg.Metrics.markDrop()
				w.cfg.Events.Warn("worker.upload_dropped", "injected drop; gradient not sent",
					e.Step, w.cfg.ID, nil)
				continue
			}
			if err := w.sendGradient(e.Step, coded, computeStart, computeDur); err != nil {
				if w.reconnect() {
					continue
				}
				return int(w.steps.Load()), nil // master already gone
			}
		}
	}
}

// sendGradient uploads one step's coded gradient as contiguous sub-frames
// encoded and sent concurrently, one per granted lane (a single
// whole-vector sub-frame on the primary connection when one lane was
// granted). The sends complete before sendGradient returns, so the
// encoder's reusable buffer (SumEncoder's contract) is never read after
// the next encode.
func (w *Worker) sendGradient(step int, coded []float64, computeStart time.Time, computeDur time.Duration) error {
	w.connMu.Lock()
	c, lanes, shards := w.c, w.lanes, w.shards
	w.connMu.Unlock()
	spans := shardSpans(len(coded), shards)
	conns := make([]*conn, 0, len(spans))
	conns = append(conns, c)
	conns = append(conns, lanes...)
	var wg sync.WaitGroup
	errs := make([]error, len(spans))
	for i, sp := range spans {
		if sp[1] == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, cc *conn, off, ln int) {
			defer wg.Done()
			errs[i] = cc.send(&Envelope{Kind: MsgGradient, Worker: w.cfg.ID, Step: step,
				Coded: coded[off : off+ln], Offset: off, Total: len(coded),
				ComputeStartUnixNano: computeStart.UnixNano(), ComputeDurNanos: int64(computeDur)})
		}(i, conns[i], sp[0], sp[1])
	}
	wg.Wait()
	w.cfg.Metrics.markSubFrames(len(spans))
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reconnect redials the master with exponential backoff and re-registers
// with the last completed step. It reports whether the worker is connected
// again; false when reconnection is disabled or the budget ran out.
func (w *Worker) reconnect() bool {
	if w.stopping.Load() || w.cfg.ReconnectTimeout <= 0 {
		return false
	}
	w.stopHeartbeat()
	_ = w.c.close()
	w.setConnected(false)
	deadline := time.Now().Add(w.cfg.ReconnectTimeout)
	backoff := 25 * time.Millisecond
	for {
		if w.stopping.Load() {
			// Stop() arrived mid-backoff: a fleet agent re-assigning this
			// worker must not wait out the rest of the redial budget.
			return false
		}
		w.cfg.Metrics.markReconnectAttempt()
		raw, err := net.DialTimeout("tcp", w.cfg.Addr, 500*time.Millisecond)
		if err == nil {
			c := newConn(raw, defaultWriteTimeout, w.cfg.Metrics.sentCounter())
			// A rejoin renegotiates from scratch: the fresh connection
			// starts in gob like any other registration, and a sharded
			// worker re-dials its lanes under the new generation.
			ack, helloErr := clientHello(c, w.cfg.ID, int(w.steps.Load()), w.cfg.GatherShards)
			if errors.Is(helloErr, ErrJobGone) {
				// Terminal reject: whoever answers this address says the job
				// no longer exists. Burning the rest of the redial budget
				// cannot change that — bow out and report it.
				_ = c.close()
				w.jobGone.Store(true)
				w.cfg.Events.Info("worker.job_gone", "redial rejected: job no longer exists",
					events.NoStep, w.cfg.ID, nil)
				return false
			}
			if helloErr == nil {
				lanes, shards, laneErr := dialLanes(ack, w.cfg)
				if laneErr == nil {
					w.cfg.Metrics.markWire(WireBinary2)
					w.cfg.Metrics.setGatherLanes(shards)
					w.connMu.Lock()
					w.c = c
					w.lanes = lanes
					w.shards = shards
					stopped := w.stopping.Load()
					w.connMu.Unlock()
					if stopped {
						// Stop raced the redial: it closed the old conn just
						// before we swapped in the new one. Tear the fresh
						// connections down too and bow out.
						_ = c.close()
						closeConns(lanes)
						return false
					}
					w.reconnects.Add(1)
					w.cfg.Metrics.markReconnect()
					w.setConnected(true)
					w.startHeartbeat()
					w.cfg.Events.Info("worker.reconnected", "re-registered after connection loss",
						events.NoStep, w.cfg.ID, events.Fields{"completed_steps": w.steps.Load(), "lanes": shards})
					return true
				}
			}
			_ = c.close()
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(backoff)
		backoff *= 2
		if backoff > time.Second {
			backoff = time.Second
		}
	}
}

// startHeartbeat launches the liveness pinger for the current connection;
// it exits on stopHeartbeat or when a ping fails (connection gone).
func (w *Worker) startHeartbeat() {
	if w.cfg.HeartbeatInterval < 0 {
		return
	}
	interval := w.cfg.HeartbeatInterval
	if interval == 0 {
		interval = time.Second
	}
	c := w.c
	stop := make(chan struct{})
	w.stopHB = stop
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if c.send(&Envelope{Kind: MsgHeartbeat, Worker: w.cfg.ID}) != nil {
					return
				}
			}
		}
	}()
}

func (w *Worker) stopHeartbeat() {
	if w.stopHB != nil {
		close(w.stopHB)
		w.stopHB = nil
	}
}

// computeStep runs the local gradient computation and returns the coded
// upload plus its timing (start and duration), which the caller stamps
// into the gradient envelope for master-side straggler attribution.
//
// With several partitions the pool computes them concurrently, each into
// its own reusable buffer — bit-identical to sequential. With one
// partition there are no replicas to stay bit-identical with, so the pool
// shards the batch itself.
func (w *Worker) computeStep(step int, params []float64) ([]float64, time.Time, time.Duration, error) {
	start := time.Now()
	if len(w.cfg.Partitions) == 1 {
		w.pool.GradInto(w.localBuf[0], params, w.cfg.Model, w.cfg.Loaders[0].Samples(step))
	} else {
		for j := range w.cfg.Loaders {
			j := j
			w.tasks[j] = func() {
				w.cfg.Model.GradInto(w.localBuf[j], params, w.cfg.Loaders[j].Samples(step))
			}
		}
		w.pool.Run(w.tasks...)
	}
	coded, err := w.cfg.Encode(w.localBuf)
	if err != nil {
		return nil, start, 0, fmt.Errorf("cluster: worker %d step %d: %w", w.cfg.ID, step, err)
	}
	dur := time.Since(start)
	w.cfg.Metrics.observeCompute(dur)
	return coded, start, dur, nil
}

// SumEncoder returns the IS-GC encoder: the plain sum of the local
// per-partition gradients. The closure owns a reusable output buffer, so
// steady-state encoding allocates nothing; the returned slice is only
// valid until the next call. That is safe for WorkerConfig.Encode — the
// worker sends the upload synchronously before encoding the next step —
// but means one encoder must not be shared between workers.
func SumEncoder() func([][]float64) ([]float64, error) {
	var out []float64
	return func(local [][]float64) ([]float64, error) {
		if len(local) == 0 {
			return nil, fmt.Errorf("cluster: no local gradients")
		}
		if len(out) != len(local[0]) {
			out = make([]float64, len(local[0]))
		}
		for k := range out {
			out[k] = 0
		}
		for _, g := range local {
			if len(g) != len(out) {
				return nil, fmt.Errorf("cluster: gradient dim mismatch %d vs %d", len(g), len(out))
			}
			for k, x := range g {
				out[k] += x
			}
		}
		return out, nil
	}
}

// LinearEncoder returns a fixed-coefficient encoder (classic GC): coeffs is
// aligned with the worker's partition list. Buffer-reuse contract matches
// SumEncoder: one encoder per worker, result valid until the next call.
func LinearEncoder(coeffs []float64) func([][]float64) ([]float64, error) {
	cs := append([]float64(nil), coeffs...)
	var out []float64
	return func(local [][]float64) ([]float64, error) {
		if len(local) != len(cs) {
			return nil, fmt.Errorf("cluster: %d gradients for %d coefficients", len(local), len(cs))
		}
		if len(out) != len(local[0]) {
			out = make([]float64, len(local[0]))
		}
		for k := range out {
			out[k] = 0
		}
		for j, g := range local {
			if len(g) != len(out) {
				return nil, fmt.Errorf("cluster: gradient dim mismatch %d vs %d", len(g), len(out))
			}
			for k, x := range g {
				out[k] += cs[j] * x
			}
		}
		return out, nil
	}
}
