package cluster

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/checkpoint"
	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/linalg"
	"isgc/internal/model"
	"isgc/internal/trace"
)

// defaultWriteTimeout bounds a single outbound send on either side of the
// protocol so one stalled socket cannot wedge a broadcast or a heartbeat.
const defaultWriteTimeout = 5 * time.Second

// MasterConfig configures a training master.
type MasterConfig struct {
	// Addr is the listen address, e.g. "127.0.0.1:0".
	Addr string
	// Strategy decodes coded gradients (shared vocabulary with the
	// in-process engine).
	Strategy engine.Strategy
	// Model evaluates the training loss; the master holds the parameters.
	Model model.Model
	// Data is the full training set (for loss evaluation).
	Data *dataset.Dataset
	// LearningRate is η.
	LearningRate float64
	// W is the number of workers to wait for per step (flexible schemes).
	W int
	// Deadline, when positive, replaces the fastest-w gather for flexible
	// schemes with the Sec. IV deadline policy: each step the master
	// accepts every gradient that arrives within Deadline of the step
	// broadcast and then proceeds (waiting for at least one arrival).
	// Rigid schemes (Sync-SGD, classic GC) ignore it.
	Deadline time.Duration
	// MaxSteps bounds the run.
	MaxSteps int
	// LossThreshold stops early when reached (0 disables).
	LossThreshold float64
	// Seed initializes the parameters (must match the workers' data seed
	// discipline).
	Seed int64
	// AcceptTimeout bounds how long the master waits for all workers to
	// register (default 10s).
	AcceptTimeout time.Duration
	// StepTimeout, when positive, bounds a single step's gather even when
	// every worker is alive — the guard against workers that heartbeat
	// but never upload (lossy links, FaultDrop). On expiry a flexible
	// scheme proceeds with whatever arrived (marked degraded) and a rigid
	// scheme fails with a diagnostic. 0 disables.
	StepTimeout time.Duration
	// LivenessTimeout declares a worker dead when nothing (gradient or
	// heartbeat) has been received from it for this long; its connection
	// is closed and the gather target degrades if the scheme permits.
	// Default 15s; negative disables the monitor (reader-exit detection
	// still catches closed connections).
	LivenessTimeout time.Duration
	// WriteTimeout bounds each outbound send (default 5s; negative
	// disables).
	WriteTimeout time.Duration
	// ComputePar sizes the master's loss-evaluation compute pool: the
	// full-dataset loss each step is sharded across this many goroutines.
	// 0 picks GOMAXPROCS, 1 forces the sequential evaluation. Sharding
	// reassociates the loss mean's floating-point sum, so runs with
	// different settings may differ in loss bits (never in parameters —
	// the master's update never touches the pool).
	ComputePar int
	// DecodeCache, when positive, memoizes decode results in an LRU of
	// that many availability masks — strategies that implement
	// engine.DecodeCacher (IS-GC) only. Hits and misses land on the
	// isgc_master_decode_cache_* counters.
	DecodeCache int
	// IncrementalDecode, when true, repairs the previous step's chosen
	// set against the availability delta instead of re-solving —
	// strategies that implement engine.IncrementalDecoder (IS-GC) only.
	// Repairs and fallbacks land on the isgc_master_decode_repairs/
	// fallbacks counters.
	IncrementalDecode bool
	// GatherShards caps how many parallel gather lanes a worker may open
	// (1..16). 0 accepts the worker's proposal up to the protocol maximum;
	// 1 grants every worker a single lane. Lane counts change only how
	// gradient bytes travel, never a record or parameter bit.
	GatherShards int
	// Pipeline enables the overlapped step loop: step t+1's broadcast
	// goes out the moment step t's update lands, and step t's loss
	// evaluation + record finalization run under step t+1's compute
	// window. With Staleness == 0 the records and final parameters are
	// bit-identical to the synchronous loop — only wall clock moves.
	// Mutually exclusive with Deadline.
	Pipeline bool
	// Staleness, when positive, is the bounded-staleness window k: the
	// gather target drops to max(1, waitFor−k) and a decoded step stays
	// correctable for k more steps — a straggler gradient arriving while
	// a later step gathers folds into the parameters as the exact
	// correction that retroactively includes it in its own step's
	// normalized update. Implies Pipeline; requires a flexible scheme.
	Staleness int
	// Metrics, when non-nil, receives live instrumentation (gather
	// latency, recovered fraction, liveness, evictions); serve it via the
	// admin package. One MasterMetrics per master.
	Metrics *MasterMetrics
	// Events, when non-nil, receives the structured event stream
	// (registrations, evictions, rejoins, degraded steps). Nil disables
	// event logging with no overhead beyond a branch per call site.
	Events *events.Log
	// Timeline, when non-nil, collects per-step and per-worker spans for
	// Chrome trace export. Nil disables span collection.
	Timeline *events.Timeline
	// Checkpoint, when non-nil, persists durable run snapshots (params,
	// step, decoder RNG position, cursors) every CheckpointEvery steps,
	// on graceful Stop, and once more — marked Completed — when the run
	// finishes. The same store carries the primary-liveness lease a warm
	// standby watches.
	Checkpoint *checkpoint.Store
	// CheckpointEvery is the checkpoint period in steps (default 10 when
	// Checkpoint is set).
	CheckpointEvery int
	// Restore resumes from Checkpoint's newest valid snapshot when one
	// exists; a fresh directory cold-starts. The resumed run's records
	// and final params are bit-identical to an uninterrupted run from the
	// checkpoint boundary on, provided the fleet and config match (see
	// DESIGN.md "Durability" for the exact conditions).
	Restore bool
	// LeaseTTL is the primary-liveness lease's time-to-live (default 5s).
	// The master renews every TTL/3; a standby takes over when the lease
	// lapses for a full TTL or is released on graceful exit.
	LeaseTTL time.Duration
	// Warm, when non-nil, starts the run from in-memory state instead of
	// step 0 or a durable checkpoint — the control plane's live
	// re-placement handoff: a quiesced job's params and next step move
	// straight into a successor master (possibly with a different
	// placement) without touching disk. Mutually exclusive with Restore.
	Warm *WarmState
	// OnPermanentEviction, when non-nil, is invoked (from a monitor
	// goroutine, never under the master's lock) once per worker
	// generation when a dead worker has stayed dead for PermanentAfter —
	// i.e. it missed every heartbeat for a full liveness timeout and then
	// failed to rejoin for PermanentAfter more. This is the control
	// plane's re-placement trigger; a mere hiccup that rejoins in time
	// never fires it.
	OnPermanentEviction func(worker, gen int)
	// PermanentAfter is how long a worker may stay dead (no rejoin)
	// before OnPermanentEviction fires. Defaults to 2× LivenessTimeout
	// when the hook is set.
	PermanentAfter time.Duration
}

// WarmState is the in-memory resume point a control plane hands a
// successor master during live re-placement. It is checkpoint-equivalent:
// a run resumed warm is bit-identical to one resumed from a durable
// checkpoint holding the same params and step (see the warm-handoff
// equivalence test).
type WarmState struct {
	// Params is the post-update parameter vector the previous master
	// generation stopped on (copied by NewMaster; the caller keeps
	// ownership).
	Params []float64
	// StartStep is the next step to broadcast.
	StartStep int
	// Generation is this master life's generation number (the previous
	// life's + 1), surfaced in hello acks and /healthz.
	Generation int
}

// workerState is the master's per-worker liveness view. gen increments on
// every (re-)registration so a stale reader goroutine cannot mark a
// reborn worker's fresh connection dead.
type workerState struct {
	c *conn
	// lanes are the extra gather-lane connections a sharding worker
	// attached (nil on single-lane registrations). They carry
	// gradient sub-frames only; control traffic stays on c.
	lanes []*conn
	// shards is the lane count granted at registration, primary
	// included; lane hellos may only fill indices 1..shards-1.
	shards   int
	alive    bool
	lastSeen time.Time
	gen      int
	// deadSince stamps the moment alive flipped false; the permanent-
	// eviction monitor measures the no-rejoin window from it.
	deadSince time.Time
	// permFired latches OnPermanentEviction for this generation, so the
	// hook fires exactly once per death no matter how often the monitor
	// ticks. A rejoin installs a fresh workerState (new generation), which
	// re-arms the hook naturally.
	permFired bool
}

// Master orchestrates distributed training over TCP and survives worker
// loss: it tracks per-worker liveness, degrades the gather target when a
// flexible scheme can decode the alive subset, fails fast for rigid
// schemes, and accepts mid-run rejoins.
type Master struct {
	cfg MasterConfig
	ln  net.Listener

	mu        sync.Mutex
	workers   []*workerState
	done      bool // training over: reject further registrations
	running   bool // a step has been broadcast: rejoiners get it re-sent
	curStep   int
	curParams []float64
	rejoins   int
	degraded  int // degraded steps so far (live view for Health)

	grads  chan arrival
	wakeup chan struct{} // liveness-changed signal for the gather loop
	quit   chan struct{} // closed when Run finishes; unblocks readers

	// stop is closed by Stop(): the gather loop winds down at the next
	// step boundary, writes a final resumable checkpoint, and Run returns
	// with Result.Interrupted — without telling the fleet to exit, so a
	// successor master can adopt the same workers.
	stop     chan struct{}
	stopOnce sync.Once
	// generation counts master lives for this run: 0 on a cold start, +1
	// per restore or failover. Guarded by mu.
	generation int
	runID      string
	// lastCkptStep/lastCkptUnixNano feed the /healthz last-checkpoint
	// fields and the last-checkpoint-step gauge (-1/0 = none yet).
	lastCkptStep     atomic.Int64
	lastCkptUnixNano atomic.Int64

	// accepted[i] counts the steps in which worker i's gradient was
	// gathered before the cut-off — the per-worker availability view an
	// operator uses to spot enduring stragglers. Atomic because the
	// admin server's Health snapshot reads it while the training loop
	// writes.
	accepted []atomic.Int64
	// malformed counts gradients rejected before decoding (wrong
	// dimension, bad worker id) — a nonzero value flags a misconfigured
	// or hostile worker. Atomic for the same live-read reason.
	malformed atomic.Int64
	// attribution accumulates per-worker arrival/compute samples for the
	// straggler-attribution report.
	attribution *trace.Attribution

	// shardAsms holds one sub-frame assembler per worker id that ever
	// registered (lazily created; see shard.go).
	shardMu   sync.Mutex
	shardAsms map[int]*shardAssembler
}

// ArrivalCounts returns, per worker, how many steps gathered that worker's
// gradient. Valid after Run returns.
func (m *Master) ArrivalCounts() []int {
	out := make([]int, len(m.accepted))
	for i := range m.accepted {
		out[i] = int(m.accepted[i].Load())
	}
	return out
}

// Rejoins returns how many mid-run re-registrations the master accepted.
// Valid after Run returns.
func (m *Master) Rejoins() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.rejoins
}

// MalformedGradients returns how many gradient envelopes were rejected
// before decoding. Valid after Run returns.
func (m *Master) MalformedGradients() int { return int(m.malformed.Load()) }

// AttributionReport returns the per-worker straggler attribution
// accumulated so far — chosen vs. ignored deliveries and compute vs.
// arrival latency percentiles. Safe to call at any time.
func (m *Master) AttributionReport() trace.AttributionReport {
	return m.attribution.Report()
}

// arrival is one gradient delivery tagged with its origin and timing:
// recvAt is stamped on the master's clock when the envelope is read, and
// the compute fields carry the worker's self-reported timing from the
// envelope (zero when the worker did not report).
type arrival struct {
	worker       int
	step         int
	coded        []float64
	recvAt       time.Time
	computeStart time.Time
	computeDur   time.Duration
}

// NewMaster starts listening; workers may connect immediately after.
func NewMaster(cfg MasterConfig) (*Master, error) {
	switch {
	case cfg.Strategy == nil:
		return nil, fmt.Errorf("cluster: nil strategy")
	case cfg.Model == nil:
		return nil, fmt.Errorf("cluster: nil model")
	case cfg.Data == nil:
		return nil, fmt.Errorf("cluster: nil dataset")
	case cfg.LearningRate <= 0:
		return nil, fmt.Errorf("cluster: need LearningRate > 0")
	case cfg.MaxSteps <= 0:
		return nil, fmt.Errorf("cluster: need MaxSteps > 0")
	}
	if cfg.AcceptTimeout <= 0 {
		cfg.AcceptTimeout = 10 * time.Second
	}
	if cfg.LivenessTimeout == 0 {
		cfg.LivenessTimeout = 15 * time.Second
	}
	if cfg.WriteTimeout == 0 {
		cfg.WriteTimeout = defaultWriteTimeout
	}
	if cfg.WriteTimeout < 0 {
		cfg.WriteTimeout = 0
	}
	if cfg.Checkpoint != nil && cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 10
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 5 * time.Second
	}
	if cfg.Warm != nil && cfg.Restore {
		return nil, fmt.Errorf("cluster: Warm and Restore are mutually exclusive")
	}
	if cfg.Warm != nil && cfg.Warm.StartStep >= cfg.MaxSteps {
		return nil, fmt.Errorf("cluster: warm start step %d is past MaxSteps %d", cfg.Warm.StartStep, cfg.MaxSteps)
	}
	if cfg.OnPermanentEviction != nil && cfg.PermanentAfter <= 0 {
		if cfg.LivenessTimeout > 0 {
			cfg.PermanentAfter = 2 * cfg.LivenessTimeout
		} else {
			cfg.PermanentAfter = 30 * time.Second
		}
	}
	if cfg.GatherShards < 0 || cfg.GatherShards > maxGatherShards {
		return nil, fmt.Errorf("cluster: need 0 ≤ GatherShards ≤ %d, got %d", maxGatherShards, cfg.GatherShards)
	}
	if cfg.Staleness < 0 {
		return nil, fmt.Errorf("cluster: need Staleness ≥ 0, got %d", cfg.Staleness)
	}
	if cfg.Staleness > 0 {
		cfg.Pipeline = true
		if cfg.Strategy.WaitFor(1) == cfg.Strategy.WaitFor(cfg.Strategy.N()) {
			return nil, fmt.Errorf("cluster: Staleness requires a flexible scheme; %s is rigid", cfg.Strategy.Name())
		}
	}
	if cfg.Pipeline && cfg.Deadline > 0 {
		return nil, fmt.Errorf("cluster: Pipeline and Deadline are mutually exclusive")
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen: %w", err)
	}
	if cfg.ComputePar < 0 {
		return nil, fmt.Errorf("cluster: need ComputePar ≥ 0, got %d", cfg.ComputePar)
	}
	if cfg.DecodeCache > 0 {
		if dc, ok := cfg.Strategy.(engine.DecodeCacher); ok {
			dc.SetDecodeCacheHooks(cfg.Metrics.decodeCacheHooks())
			dc.EnableDecodeCache(cfg.DecodeCache)
		}
	}
	if cfg.IncrementalDecode {
		if id, ok := cfg.Strategy.(engine.IncrementalDecoder); ok {
			id.SetIncrementalHooks(cfg.Metrics.incrementalDecodeHooks())
			id.EnableIncrementalDecode()
		}
	}
	m := &Master{cfg: cfg, ln: ln, attribution: trace.NewAttribution(cfg.Strategy.N()),
		stop: make(chan struct{})}
	m.lastCkptStep.Store(-1)
	m.runID = fmt.Sprintf("run-%d", time.Now().UnixNano())
	if cfg.Warm != nil {
		m.generation = cfg.Warm.Generation
	}
	if cfg.Checkpoint != nil {
		cfg.Checkpoint.SetSkipHook(func(file string, reason error) {
			m.cfg.Metrics.markRestoreSkipped()
			m.cfg.Events.Warn("master.checkpoint_restore_skipped", "corrupt checkpoint skipped during restore",
				events.NoStep, events.NoWorker, events.Fields{"file": file, "reason": reason.Error()})
		})
	}
	cfg.Metrics.bind(m)
	return m, nil
}

// Stop requests a graceful shutdown: the training loop winds down at the
// next step boundary (or mid-gather, abandoning the in-flight step), writes
// a final resumable checkpoint when one is configured, and Run returns with
// Result.Interrupted set. The fleet is NOT told to exit — workers keep
// their reconnect loops alive so a restarted or standby master can adopt
// them. Safe to call from any goroutine, any number of times, including
// before Run.
func (m *Master) Stop() {
	m.stopOnce.Do(func() { close(m.stop) })
}

// errInterrupted is the gather loops' sentinel for "Stop() was called":
// the training loop converts it into a checkpoint + clean return rather
// than an error.
var errInterrupted = errors.New("cluster: run interrupted")

// Health returns a point-in-time snapshot of the master's liveness view —
// the /healthz payload. Safe to call from any goroutine at any time
// (before Run it reports an empty worker list).
func (m *Master) Health() MasterHealth {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	h := MasterHealth{
		Running:            m.running && !m.done,
		Step:               m.curStep,
		Generation:         m.generation,
		DegradedSteps:      m.degraded,
		Rejoins:            m.rejoins,
		MalformedGradients: m.malformed.Load(),
		LastCheckpointStep: int(m.lastCkptStep.Load()),
		Workers:            make([]WorkerHealthView, len(m.workers)),
	}
	if at := m.lastCkptUnixNano.Load(); at > 0 {
		h.LastCheckpointAgeSeconds = now.Sub(time.Unix(0, at)).Seconds()
	} else {
		h.LastCheckpointAgeSeconds = -1
	}
	h.GatherP50Seconds, h.GatherP95Seconds = m.cfg.Metrics.gatherQuantiles()
	for i, ws := range m.workers {
		v := WorkerHealthView{ID: i, LastSeenAgeSeconds: -1, Generation: -1}
		if i < len(m.accepted) {
			v.AcceptedSteps = m.accepted[i].Load()
		}
		if ws != nil {
			v.Alive = ws.alive
			v.LastSeenAgeSeconds = now.Sub(ws.lastSeen).Seconds()
			v.Generation = ws.gen
			if ws.alive {
				h.AliveWorkers++
			}
		}
		h.Workers[i] = v
	}
	return h
}

// maxHeartbeatAge returns the age in seconds of the stalest alive
// worker's last message (0 when no worker is alive) — the scrape-time
// heartbeat-lag gauge.
func (m *Master) maxHeartbeatAge() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := time.Now()
	max := 0.0
	for _, ws := range m.workers {
		if ws != nil && ws.alive {
			if age := now.Sub(ws.lastSeen).Seconds(); age > max {
				max = age
			}
		}
	}
	return max
}

// Addr returns the actual listen address (useful with ":0").
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Run accepts the n workers, trains, shuts the workers down, and returns
// the run result. It blocks until training finishes or fails, and — unlike
// a naive gather — it cannot hang forever on dead workers: connection loss
// and liveness timeouts feed the gather loop, which degrades or errors out.
func (m *Master) Run() (*engine.Result, error) {
	n := m.cfg.Strategy.N()
	m.cfg.Events.Info("master.run_started", "master listening", events.NoStep, events.NoWorker,
		events.Fields{"addr": m.Addr(), "scheme": m.cfg.Strategy.Name(), "workers": n})
	m.cfg.Timeline.SetThreadName(0, "master")
	for i := 0; i < n; i++ {
		m.cfg.Timeline.SetThreadName(i+1, fmt.Sprintf("worker %d", i))
	}
	m.grads = make(chan arrival, 8*n)
	m.wakeup = make(chan struct{}, 1)
	m.quit = make(chan struct{})
	// The admin server may snapshot Health concurrently with Run's setup,
	// so the shared slices appear under the lock.
	m.mu.Lock()
	m.workers = make([]*workerState, n)
	m.accepted = make([]atomic.Int64, n)
	m.mu.Unlock()

	var readers sync.WaitGroup
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		m.acceptLoop(&readers)
	}()
	if m.cfg.LivenessTimeout > 0 {
		go m.monitorLiveness()
	}
	if m.cfg.OnPermanentEviction != nil {
		go m.monitorPermanentEvictions()
	}
	leaseDone := make(chan struct{})
	if m.cfg.Checkpoint != nil {
		go func() {
			defer close(leaseDone)
			m.renewLease()
		}()
	} else {
		close(leaseDone)
	}

	var res *engine.Result
	err := m.awaitFleet(n)
	if err == nil {
		res, err = m.trainLoop()
	}
	interrupted := res != nil && res.Interrupted
	switch {
	case err != nil:
		m.cfg.Events.Error("master.run_finished", "training failed", events.NoStep, events.NoWorker,
			events.Fields{"error": err.Error()})
	case interrupted:
		m.cfg.Events.Info("master.interrupted", "run stopped gracefully; fleet left running", events.NoStep,
			events.NoWorker, events.Fields{"steps": res.Run.Steps()})
	default:
		m.cfg.Events.Info("master.run_finished", "training finished", events.NoStep, events.NoWorker,
			events.Fields{"steps": res.Run.Steps(), "converged": res.Converged})
	}

	// Shutdown order matters: refuse further registrations, say goodbye,
	// stop accepting, then close every connection so readers drain. An
	// interrupted master says no goodbye — the workers' reconnect loops
	// keep the fleet alive for a successor master.
	m.mu.Lock()
	m.done = true
	m.mu.Unlock()
	if !interrupted {
		m.broadcast(&Envelope{Kind: MsgStop})
	}
	close(m.quit)
	<-leaseDone
	if m.cfg.Checkpoint != nil {
		// Released only on graceful exit: a standby may take over
		// immediately instead of waiting out the TTL. A crashed master
		// never reaches this line, which is the point of the lease.
		if lerr := m.cfg.Checkpoint.ReleaseLease(); lerr != nil {
			m.cfg.Events.Warn("master.lease_release_failed", "could not remove lease file",
				events.NoStep, events.NoWorker, events.Fields{"error": lerr.Error()})
		}
	}
	m.ln.Close()
	<-acceptDone
	m.closeAll()
	readers.Wait()
	return res, err
}

// renewLease marks this master as the live primary in the checkpoint
// directory until Run shuts down. Renewal failures are logged, not fatal —
// a wedged disk should not kill training, though it may trigger a standby.
func (m *Master) renewLease() {
	ttl := m.cfg.LeaseTTL
	holder := fmt.Sprintf("pid%d@%s", os.Getpid(), m.Addr())
	write := func() {
		if err := m.cfg.Checkpoint.WriteLease(holder, ttl); err != nil {
			m.cfg.Events.Warn("master.lease_renew_failed", "could not renew liveness lease",
				events.NoStep, events.NoWorker, events.Fields{"error": err.Error()})
		}
	}
	write()
	t := time.NewTicker(ttl / 3)
	defer t.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
			write()
		}
	}
}

// acceptLoop serves registrations (initial and rejoin) until the listener
// closes.
func (m *Master) acceptLoop(readers *sync.WaitGroup) {
	for {
		raw, err := m.ln.Accept()
		if err != nil {
			return // listener closed: Run is shutting down
		}
		m.handshake(raw, readers)
	}
}

// handshake validates a MsgHello and registers (or re-registers) the
// worker. Invalid or duplicate registrations close the connection but keep
// the cluster running — a reborn worker must not be able to kill the
// master, and neither must a stranger.
func (m *Master) handshake(raw net.Conn, readers *sync.WaitGroup) {
	n := m.cfg.Strategy.N()
	c := newConn(raw, m.cfg.WriteTimeout, m.cfg.Metrics.sentCounter())
	_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	hello, err := c.recv()
	if err != nil || hello.Kind != MsgHello || hello.Worker < 0 || hello.Worker >= n {
		_ = c.close()
		return
	}
	_ = raw.SetReadDeadline(time.Time{})
	id := hello.Worker

	// Terminal reject before any codec negotiation, so the reply is always
	// a plain gob message the worker can parse: a done master will never
	// run another step, and the worker must stop burning its redial budget
	// (fleet workers return to the control plane's pool on this signal).
	m.mu.Lock()
	if m.done {
		m.mu.Unlock()
		_ = c.send(&Envelope{Kind: MsgJobGone})
		_ = c.close()
		return
	}
	m.mu.Unlock()

	// The one data-plane codec: a hello proposing anything else (a gob or
	// binaryv1 peer, or none at all) is refused like any other bad hello.
	if hello.Wire != WireBinary2 {
		_ = c.close()
		return
	}
	// Extra gather lanes attach through the same listener: a hello tagged
	// with a lane index joins an existing registration instead of
	// creating one.
	if hello.Shard > 0 {
		m.attachLane(c, hello, readers)
		return
	}

	// The ack names the granted lane count and is sent before the
	// connection becomes visible to broadcasts and readers, so no message
	// can straddle the switch to frames. It carries the master's run
	// generation so a resuming worker learns it is talking to a restored
	// (or failed-over) master.
	shards := grantShards(hello.Shards, m.cfg.GatherShards)
	m.mu.Lock()
	masterGen := m.generation
	m.mu.Unlock()
	ack := &Envelope{Kind: MsgHello, Worker: id, Wire: WireBinary2, Shards: shards, Gen: masterGen}
	if err := c.send(ack); err != nil {
		_ = c.close()
		return
	}
	// Every gradient is a sub-frame: read its payload straight into the
	// shard assembler's gather buffer. Gradient ownership transfers to the
	// gather loop, so the connection never reuses vectors.
	c.asm = m.shardAsmFor(id)
	c.upgrade(false)
	m.cfg.Metrics.markWire(WireBinary2)

	m.mu.Lock()
	if m.done {
		m.mu.Unlock()
		// The run ended during the exchange. A frame cannot carry
		// MsgJobGone, so just close: the worker's redial meets the
		// terminal reject above.
		_ = c.close()
		return
	}
	prev := m.workers[id]
	if prev != nil && prev.alive {
		// Duplicate id on a live connection: refuse the newcomer.
		m.mu.Unlock()
		_ = c.close()
		return
	}
	gen := 0
	if prev != nil {
		gen = prev.gen + 1
		m.rejoins++
		m.cfg.Metrics.markRejoin()
	}
	m.workers[id] = &workerState{c: c, shards: shards, alive: true, lastSeen: time.Now(), gen: gen}
	m.cfg.Metrics.setWorkerAlive(id, true)
	step := events.NoStep
	if m.running {
		step = m.curStep
	}
	var resume *Envelope
	if m.running {
		resume = &Envelope{Kind: MsgStep, Step: m.curStep, Params: m.curParams}
	}
	m.mu.Unlock()

	if gen > 0 {
		m.cfg.Events.Info("master.worker_rejoined", "worker re-registered mid-run", step, id,
			events.Fields{"generation": gen, "lanes": shards})
	} else {
		m.cfg.Events.Info("master.worker_registered", "worker registered", step, id,
			events.Fields{"lanes": shards})
	}

	m.pokeLiveness()
	if resume != nil {
		// Mid-run rejoin: hand the worker the in-flight step immediately
		// so it can participate without waiting for the next broadcast.
		if err := c.send(resume); err != nil {
			_ = c.close() // the reader below will mark it dead
		}
	}
	readers.Add(1)
	go m.readFrom(id, gen, c, readers)
}

// readFrom pumps one worker connection: heartbeats refresh lastSeen,
// gradients are forwarded to the gather loop, and connection loss marks the
// worker dead and wakes the gather loop — the "reader-exit notification"
// that keeps trainLoop from blocking forever on a dead fleet.
func (m *Master) readFrom(id, gen int, c *conn, readers *sync.WaitGroup) {
	defer readers.Done()
	for {
		e, err := c.recv()
		if err != nil {
			break
		}
		m.mu.Lock()
		if ws := m.workers[id]; ws != nil && ws.gen == gen {
			ws.lastSeen = time.Now()
		}
		m.mu.Unlock()
		if e.Kind == MsgGradient {
			if !m.deliverGradient(id, e) {
				return
			}
		}
	}
	m.mu.Lock()
	ws := m.workers[id]
	current := ws != nil && ws.gen == gen
	var lanes []*conn
	if current {
		ws.alive = false
		ws.deadSince = time.Now()
		lanes = ws.lanes
		if !m.done {
			step := events.NoStep
			if m.running {
				step = m.curStep
			}
			// The single authoritative eviction event: every path that kills
			// a connection (remote close, liveness timeout, failed send)
			// funnels through this reader exit. It is logged before the lock
			// drops, so nothing that acts on the eviction — a degraded step
			// above all — can reach the log ahead of it.
			m.cfg.Events.Warn("master.worker_evicted", "worker connection lost", step, id,
				events.Fields{"generation": gen, "reason": "connection_lost"})
		}
	}
	m.mu.Unlock()
	if current {
		m.cfg.Metrics.setWorkerAlive(id, false)
		_ = c.close()
		for _, lc := range lanes {
			_ = lc.close()
		}
		m.pokeLiveness()
	}
}

// deliverGradient routes one authenticated gradient sub-frame to the
// gather loop: it commits to the worker's shard assembler and forwards the
// whole vector once the last span lands. Returns false when the master is
// shutting down.
func (m *Master) deliverGradient(id int, e *Envelope) bool {
	if e.Coded == nil {
		// Declined reservation: a stale, overlapping, or mismatched
		// sub-frame whose payload bytes were drained undecoded.
		return true
	}
	m.cfg.Metrics.markSubFrames(1)
	full, ok := m.shardAsmFor(id).commit(e)
	if !ok {
		return true // more spans outstanding, or the step was evicted
	}
	a := arrival{worker: id, step: e.Step, coded: full, recvAt: time.Now(),
		computeDur: time.Duration(e.ComputeDurNanos)}
	if e.ComputeStartUnixNano > 0 {
		a.computeStart = time.Unix(0, e.ComputeStartUnixNano)
	}
	// The arrival is attributed to the authenticated connection id, not
	// the envelope's claim, so a worker cannot spoof another.
	select {
	case m.grads <- a:
	case <-m.quit:
		return false
	}
	return true
}

// recycle returns an arrival's gather buffer to its worker's assembler.
// The step loop calls it once it is done with the vector: every strategy's
// Recover allocates its own result and keeps no reference to its inputs.
func (m *Master) recycle(a arrival) {
	m.shardAsmFor(a.worker).release(a.coded)
}

// recycleGathered recycles every gradient a step gathered, after the
// update consumed them.
func (m *Master) recycleGathered(avail *bitset.Set, coded [][]float64) {
	avail.Range(func(w int) bool {
		m.shardAsmFor(w).release(coded[w])
		return true
	})
}

// pokeLiveness nudges whoever is blocked on the gather/accept select to
// recompute the alive set. The channel holds one pending signal; dropping
// extras is fine because the consumer recomputes from scratch.
func (m *Master) pokeLiveness() {
	select {
	case m.wakeup <- struct{}{}:
	default:
	}
}

// monitorLiveness closes connections that have been silent for longer than
// LivenessTimeout; the reader then marks the worker dead. Heartbeats keep
// healthy-but-idle workers off this path.
func (m *Master) monitorLiveness() {
	interval := m.cfg.LivenessTimeout / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
			now := time.Now()
			type victim struct {
				id     int
				c      *conn
				silent time.Duration
			}
			var evict []victim
			m.mu.Lock()
			for id, ws := range m.workers {
				if ws != nil && ws.alive && now.Sub(ws.lastSeen) > m.cfg.LivenessTimeout {
					evict = append(evict, victim{id: id, c: ws.c, silent: now.Sub(ws.lastSeen)})
				}
			}
			step := events.NoStep
			if m.running {
				step = m.curStep
			}
			m.mu.Unlock()
			for _, v := range evict {
				m.cfg.Metrics.markEviction()
				m.cfg.Events.Warn("master.worker_liveness_timeout", "no message within liveness timeout",
					step, v.id, events.Fields{"silent": v.silent.String(), "timeout": m.cfg.LivenessTimeout.String()})
				_ = v.c.close()
			}
		}
	}
}

// monitorPermanentEvictions watches for workers that died and then failed
// to rejoin for PermanentAfter — the signal that a worker is gone for good
// (machine loss) rather than hiccuping (network blip, master failover).
// Each death fires OnPermanentEviction exactly once per worker generation:
// the permFired latch sits on the workerState a rejoin replaces, so a
// reborn worker re-arms the hook while repeated monitor ticks on the same
// corpse do not re-fire it.
func (m *Master) monitorPermanentEvictions() {
	interval := m.cfg.PermanentAfter / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-m.quit:
			return
		case <-t.C:
			type death struct{ id, gen int }
			var fired []death
			now := time.Now()
			m.mu.Lock()
			if m.done {
				m.mu.Unlock()
				return
			}
			step := events.NoStep
			if m.running {
				step = m.curStep
			}
			for id, ws := range m.workers {
				if ws != nil && !ws.alive && !ws.permFired && !ws.deadSince.IsZero() &&
					now.Sub(ws.deadSince) > m.cfg.PermanentAfter {
					ws.permFired = true
					fired = append(fired, death{id: id, gen: ws.gen})
				}
			}
			m.mu.Unlock()
			for _, d := range fired {
				m.cfg.Metrics.markPermanentEviction()
				m.cfg.Events.Warn("master.worker_permanently_evicted",
					"worker stayed dead past the permanent-eviction window", step, d.id,
					events.Fields{"generation": d.gen, "window": m.cfg.PermanentAfter.String()})
				m.cfg.OnPermanentEviction(d.id, d.gen)
			}
		}
	}
}

// awaitFleet blocks until all n workers are registered and alive, or the
// accept timeout expires.
func (m *Master) awaitFleet(n int) error {
	deadline := time.NewTimer(m.cfg.AcceptTimeout)
	defer deadline.Stop()
	for {
		if alive := m.countAlive(); alive >= n {
			return nil
		}
		select {
		case <-m.wakeup:
		case <-deadline.C:
			return fmt.Errorf("cluster: accept (have %d/%d workers): timed out after %v",
				m.countAlive(), n, m.cfg.AcceptTimeout)
		}
	}
}

// countAlive returns the number of workers with a live connection.
func (m *Master) countAlive() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	alive := 0
	for _, ws := range m.workers {
		if ws != nil && ws.alive {
			alive++
		}
	}
	return alive
}

// achievable returns the most gradients the current step can still gather:
// those already received plus the alive workers yet to deliver. (A worker
// that uploaded and then died still contributed.)
func (m *Master) achievable(avail *bitset.Set) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	count := avail.Len()
	for id, ws := range m.workers {
		if ws != nil && ws.alive && !avail.Contains(id) {
			count++
		}
	}
	return count
}

// trainState carries the setup shared by the synchronous and pipelined
// step loops: scheme geometry, the (possibly restored) parameter vector,
// the loss-evaluation pool, and the step to start from.
type trainState struct {
	st          engine.Strategy
	n           int
	waitFor     int
	flexible    bool
	useDeadline bool
	params      []float64
	dim         int
	all         []dataset.Sample
	pool        *model.ParallelGrad
	startStep   int
}

func (m *Master) trainLoop() (*engine.Result, error) {
	res := &engine.Result{}
	ts, finished, err := m.setupTrain(res)
	if err != nil || finished {
		return res, err
	}
	// The per-step full-dataset loss is the master's only heavy compute;
	// shard it across a long-lived pool.
	ts.pool = model.NewParallelGrad(m.cfg.ComputePar)
	defer ts.pool.Close()
	m.cfg.Metrics.setComputeShards(ts.pool.Par())
	if m.cfg.Pipeline {
		return m.runPipelined(ts, res)
	}
	return m.runSync(ts, res)
}

// setupTrain resolves the scheme geometry and the starting parameters —
// cold start, warm handoff, or durable-checkpoint restore. finished is
// true when a completed checkpoint already answers the run (res is then
// fully populated).
func (m *Master) setupTrain(res *engine.Result) (*trainState, bool, error) {
	st := m.cfg.Strategy
	n := st.N()
	ts := &trainState{st: st, n: n, waitFor: st.WaitFor(m.cfg.W)}
	// Deadline mode and graceful degradation apply only to flexible
	// schemes: a rigid scheme reports the same WaitFor for every target
	// and cannot decode a smaller subset.
	ts.flexible = st.WaitFor(1) != st.WaitFor(n)
	ts.useDeadline = m.cfg.Deadline > 0 && ts.flexible
	ts.params = m.cfg.Model.InitParams(m.cfg.Seed)
	ts.dim = len(ts.params)
	ts.all = make([]dataset.Sample, m.cfg.Data.Len())
	for i := range ts.all {
		ts.all[i] = m.cfg.Data.At(i)
	}

	if m.cfg.Warm != nil {
		// Live re-placement handoff: resume from the in-memory state the
		// previous master generation quiesced on. Checkpoint-equivalent —
		// same params, same next step — just without the disk round trip.
		if len(m.cfg.Warm.Params) != ts.dim {
			return ts, false, fmt.Errorf("cluster: warm params dim %d, model dim %d", len(m.cfg.Warm.Params), ts.dim)
		}
		ts.params = append([]float64(nil), m.cfg.Warm.Params...)
		ts.startStep = m.cfg.Warm.StartStep
		m.cfg.Events.Info("master.warm_resumed", "resumed from in-memory handoff state", ts.startStep,
			events.NoWorker, events.Fields{"generation": m.cfg.Warm.Generation})
	}
	if m.cfg.Restore && m.cfg.Checkpoint != nil {
		var cst checkpoint.State
		info, err := m.cfg.Checkpoint.Latest(&cst)
		switch {
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Fresh directory: cold start.
		case err != nil:
			return ts, false, fmt.Errorf("cluster: restore: %w", err)
		default:
			if cst.Scheme != st.Name() || cst.N != n || cst.Seed != m.cfg.Seed {
				return ts, false, fmt.Errorf("cluster: checkpoint %s is for scheme=%q n=%d seed=%d, config says scheme=%q n=%d seed=%d",
					info.File, cst.Scheme, cst.N, cst.Seed, st.Name(), n, m.cfg.Seed)
			}
			ts.params = checkpoint.BytesToFloat64s(cst.Params)
			ts.startStep = cst.Step
			if rs, ok := st.(engine.RandStateful); ok {
				rs.RestoreRandState(cst.DecoderSeed, cst.DecoderDraws)
			}
			m.mu.Lock()
			m.generation = cst.Generation + 1
			if cst.RunID != "" {
				m.runID = cst.RunID
			}
			gen := m.generation
			m.mu.Unlock()
			m.lastCkptStep.Store(int64(cst.Step))
			m.lastCkptUnixNano.Store(cst.SavedAtUnixNano)
			m.cfg.Events.Info("master.checkpoint_restored", "resumed from durable checkpoint", cst.Step,
				events.NoWorker, events.Fields{"file": info.File, "generation": gen, "completed": cst.Completed})
			if cst.Completed {
				res.Params = ts.params
				res.Converged = cst.Step < m.cfg.MaxSteps
				if res.Converged {
					res.StepsToThreshold = cst.Step
				} else {
					res.StepsToThreshold = m.cfg.MaxSteps
				}
				return ts, true, nil
			}
		}
	}
	return ts, false, nil
}

// runSync is the classic strictly phase-serialized step loop: broadcast,
// gather, decode, update, loss, record — nothing overlaps. This is the
// default path and every step of it is pinned bit-identical by the
// equivalence suites.
func (m *Master) runSync(ts *trainState, res *engine.Result) (*engine.Result, error) {
	st, n := ts.st, ts.n
	waitFor, flexible, useDeadline := ts.waitFor, ts.flexible, ts.useDeadline
	params, dim, all, pool := ts.params, ts.dim, ts.all, ts.pool
	startStep := ts.startStep
	saveCheckpoint := func(nextStep, records int, completed bool) {
		m.writeCheckpoint(params, nextStep, records, completed)
	}

	interrupted := func(step, records int) {
		res.Interrupted = true
		if m.cfg.Checkpoint != nil {
			saveCheckpoint(step, records, false)
		}
	}
	for step := startStep; step < m.cfg.MaxSteps; step++ {
		select {
		case <-m.stop:
			// Stop before broadcasting a new step: params are exactly the
			// post-step-(step-1) state, so the checkpoint resumes at step.
			interrupted(step, res.Run.Steps())
			res.Params = params
			return res, nil
		default:
		}
		m.mu.Lock()
		m.running = true
		m.curStep = step
		// Rejoin handshakes read curParams concurrently with the AXPY
		// update below, so they get their own copy.
		m.curParams = append([]float64(nil), params...)
		m.mu.Unlock()
		bcastStart := time.Now()
		m.broadcast(&Envelope{Kind: MsgStep, Step: step, Params: params})
		stepStart := time.Now()

		avail := bitset.New(n)
		coded := make([][]float64, n)
		accept := func(a arrival) {
			if a.step != step || a.worker < 0 || a.worker >= n || avail.Contains(a.worker) {
				// Stale or duplicate delivery: the work was done but the
				// master cannot use it — the "ignored" column of the
				// attribution report. A duplicate's arrival is measured
				// against the current broadcast; a stale gradient has no
				// valid baseline, so its latency stays unmeasured (zero).
				if a.worker >= 0 && a.worker < n {
					s := trace.ArrivalSample{Worker: a.worker, Step: step, Compute: a.computeDur}
					if a.step == step {
						s.Arrival = a.recvAt.Sub(stepStart)
					}
					m.attribution.ObserveIgnored(s)
				}
				m.recycle(a)
				return
			}
			if len(a.coded) != dim {
				// A malformed envelope must never reach Recover/AXPY,
				// where a wrong-dimension vector panics the master.
				m.malformed.Add(1)
				m.cfg.Metrics.markMalformed()
				m.cfg.Events.Warn("master.malformed_gradient", "gradient rejected before decode",
					step, a.worker, events.Fields{"got_dim": len(a.coded), "want_dim": dim})
				return
			}
			avail.Add(a.worker)
			coded[a.worker] = a.coded
			m.accepted[a.worker].Add(1)
			m.cfg.Metrics.markAccepted(a.worker)
			m.attribution.ObserveAccepted(trace.ArrivalSample{
				Worker: a.worker, Step: step,
				Compute: a.computeDur, Arrival: a.recvAt.Sub(stepStart),
			})
			if a.computeDur > 0 && !a.computeStart.IsZero() {
				// The worker's self-reported compute interval, rendered on
				// its own track. The start stamp is the worker's clock —
				// on one machine that is the same clock; across machines
				// skew shifts the span without changing its length.
				m.cfg.Timeline.Add(events.Span{
					Name: "compute", Cat: "compute", TID: a.worker + 1,
					Start: a.computeStart, Dur: a.computeDur,
					Args: map[string]any{"step": step},
				})
			}
		}

		var degraded bool
		var gatherErr error
		if useDeadline {
			gatherErr = m.gatherDeadline(step, n, avail, accept)
		} else {
			degraded, gatherErr = m.gatherFastest(step, n, waitFor, flexible, avail, accept)
		}
		if errors.Is(gatherErr, errInterrupted) {
			// Stopped mid-gather: params are still the pre-update state of
			// this step, so the checkpoint replays step in the next life.
			interrupted(step, res.Run.Steps())
			res.Params = params
			return res, nil
		}
		if gatherErr != nil {
			return res, gatherErr
		}
		gatherEnd := time.Now()
		elapsed := gatherEnd.Sub(stepStart)
		if degraded {
			m.mu.Lock()
			m.degraded++
			m.mu.Unlock()
			m.cfg.Events.Warn("master.step_degraded", "gather target shrank below configured wait",
				step, events.NoWorker, events.Fields{"gathered": avail.Len(), "configured": waitFor})
		}

		ghat, recParts, err := st.Recover(avail, coded)
		if err != nil {
			return res, fmt.Errorf("cluster: step %d: %w", step, err)
		}
		decodeEnd := time.Now()
		recovered := len(recParts)
		m.cfg.Metrics.observeStep(elapsed, float64(recovered)/float64(n), degraded)
		if recovered > 0 {
			linalg.AXPY(params, -m.cfg.LearningRate/float64(recovered), ghat)
		}
		m.recycleGathered(avail, coded)
		loss := pool.Loss(params, m.cfg.Model, all)
		updateEnd := time.Now()
		if m.cfg.Timeline != nil {
			stepArgs := map[string]any{"gathered": avail.Len(), "recovered": recovered, "degraded": degraded}
			m.cfg.Timeline.Add(events.Span{Name: fmt.Sprintf("step %d", step), Cat: "step",
				Start: bcastStart, Dur: updateEnd.Sub(bcastStart), Args: stepArgs})
			m.cfg.Timeline.Add(events.Span{Name: "broadcast", Cat: "phase",
				Start: bcastStart, Dur: stepStart.Sub(bcastStart)})
			m.cfg.Timeline.Add(events.Span{Name: "gather", Cat: "phase",
				Start: stepStart, Dur: elapsed})
			m.cfg.Timeline.Add(events.Span{Name: "decode", Cat: "phase",
				Start: gatherEnd, Dur: decodeEnd.Sub(gatherEnd)})
			m.cfg.Timeline.Add(events.Span{Name: "update", Cat: "phase",
				Start: decodeEnd, Dur: updateEnd.Sub(decodeEnd)})
		}
		m.cfg.Events.Debug("master.step_completed", "step finished", step, events.NoWorker,
			events.Fields{"gathered": avail.Len(), "recovered": recovered,
				"degraded": degraded, "loss": loss, "elapsed": elapsed.String()})
		res.Run.Append(trace.StepRecord{
			Step:              step,
			Available:         avail.Len(),
			Chosen:            recovered / st.C(),
			RecoveredFraction: float64(recovered) / float64(n),
			Partitions:        recParts,
			Alive:             m.countAlive(),
			Degraded:          degraded,
			Loss:              loss,
			Elapsed:           elapsed,
		})
		if m.cfg.LossThreshold > 0 && loss <= m.cfg.LossThreshold {
			res.Converged = true
			res.StepsToThreshold = step + 1
			break
		}
		if m.cfg.Checkpoint != nil && (step+1)%m.cfg.CheckpointEvery == 0 && step+1 < m.cfg.MaxSteps {
			saveCheckpoint(step+1, res.Run.Steps(), false)
		}
	}
	if !res.Converged {
		res.StepsToThreshold = m.cfg.MaxSteps
	}
	res.Params = params
	if m.cfg.Checkpoint != nil {
		saveCheckpoint(startStep+res.Run.Steps(), res.Run.Steps(), true)
	}
	return res, nil
}

// runPipelined is the overlapped step loop: step t+1's broadcast goes out
// the moment step t's update lands, and step t's loss evaluation + record
// finalization run while the fleet is already computing t+1. With
// Staleness == 0 the schedule is the only thing that changes — the gather
// target, every record, and the final parameters are bit-identical to
// runSync, because the deferred loss is evaluated on the same parameter
// bits (a broadcast writes nothing). With Staleness = k > 0 the gather
// target drops to max(1, waitFor−k) and each decoded step stays pending
// for k steps: a straggler gradient arriving while a later step gathers
// folds into the current parameters as the exact correction that
// retroactively includes it in its own step's normalized update.
func (m *Master) runPipelined(ts *trainState, res *engine.Result) (*engine.Result, error) {
	st, n := ts.st, ts.n
	params, dim, all, pool := ts.params, ts.dim, ts.all, ts.pool
	startStep := ts.startStep
	target := ts.waitFor
	if m.cfg.Staleness > 0 {
		if target -= m.cfg.Staleness; target < 1 {
			target = 1
		}
	}
	saveCheckpoint := func(nextStep, records int, completed bool) {
		m.writeCheckpoint(params, nextStep, records, completed)
	}
	interrupted := func(step, records int) {
		res.Interrupted = true
		if m.cfg.Checkpoint != nil {
			saveCheckpoint(step, records, false)
		}
	}

	// pendingStep is a decoded-but-still-correctable step: its owned
	// gradient sum, normalizer, and covered partitions stick around for
	// Staleness more steps so late stragglers can fold in.
	type pendingStep struct {
		step  int
		avail *bitset.Set // workers already counted
		mask  *bitset.Set // partitions already counted
		g     []float64   // owned decoded sum over mask
		r     int         // partitions in g (the update's normalizer)
	}
	var pending []*pendingStep
	folded := 0 // folds landed during the current gather

	// tryFold retroactively includes a straggler's gradient in its own
	// step's update. The parameters already carry −lr·G/r for that step;
	// folding the late sum g (c fresh partitions) means applying the
	// difference −lr·((G+g)/(r+c) − G/r) now — exact, because SGD updates
	// compose additively on the parameter vector.
	tryFold := func(a arrival) bool {
		if m.cfg.Staleness == 0 || a.worker < 0 || a.worker >= n || len(a.coded) != dim {
			return false
		}
		var p *pendingStep
		for _, q := range pending {
			if q.step == a.step {
				p = q
				break
			}
		}
		if p == nil || p.avail.Contains(a.worker) {
			return false
		}
		parts := st.Partitions(a.worker)
		for _, pt := range parts {
			if p.mask.Contains(pt) {
				return false // overlaps the counted set: cannot fold exactly
			}
		}
		rOld, rNew := float64(p.r), float64(p.r+len(parts))
		lr := m.cfg.LearningRate
		for i, g := range a.coded {
			ng := p.g[i] + g
			old := 0.0
			if p.r > 0 {
				old = p.g[i] / rOld
			}
			params[i] -= lr * (ng/rNew - old)
			p.g[i] = ng
		}
		p.r += len(parts)
		p.avail.Add(a.worker)
		for _, pt := range parts {
			p.mask.Add(pt)
		}
		folded++
		m.recycle(a)
		m.accepted[a.worker].Add(1)
		m.cfg.Metrics.markAccepted(a.worker)
		m.cfg.Metrics.markFolded()
		m.attribution.ObserveAccepted(trace.ArrivalSample{Worker: a.worker, Step: a.step, Compute: a.computeDur})
		m.cfg.Events.Debug("master.gradient_folded", "late gradient folded into parameters",
			a.step, a.worker, events.Fields{"partitions": len(parts), "normalizer": p.r})
		return true
	}

	// deferredStep is a completed step whose loss evaluation and record
	// append are finalized one iteration later, under the next step's
	// compute window.
	type deferredStep struct {
		step, avail, recovered, aliveAt, folded     int
		recParts                                    []int
		degraded                                    bool
		elapsed                                     time.Duration
		bcastStart, stepStart, gatherEnd, decodeEnd time.Time
		updateEnd                                   time.Time
	}
	var prev *deferredStep
	// finalize evaluates the deferred step's loss on the current
	// parameters — identical bits to evaluating before the next broadcast
	// — appends its record, and handles convergence and periodic
	// checkpoints. Returns true when the run converged.
	finalize := func(d *deferredStep) bool {
		loss := pool.Loss(params, m.cfg.Model, all)
		lossEnd := time.Now()
		if m.cfg.Timeline != nil {
			stepArgs := map[string]any{"gathered": d.avail, "recovered": d.recovered, "degraded": d.degraded}
			if d.folded > 0 {
				stepArgs["folded"] = d.folded
			}
			m.cfg.Timeline.Add(events.Span{Name: fmt.Sprintf("step %d", d.step), Cat: "step",
				Start: d.bcastStart, Dur: d.updateEnd.Sub(d.bcastStart), Args: stepArgs})
			m.cfg.Timeline.Add(events.Span{Name: "broadcast", Cat: "phase",
				Start: d.bcastStart, Dur: d.stepStart.Sub(d.bcastStart)})
			m.cfg.Timeline.Add(events.Span{Name: "gather", Cat: "phase",
				Start: d.stepStart, Dur: d.elapsed})
			m.cfg.Timeline.Add(events.Span{Name: "decode", Cat: "phase",
				Start: d.gatherEnd, Dur: d.decodeEnd.Sub(d.gatherEnd)})
			m.cfg.Timeline.Add(events.Span{Name: "update", Cat: "phase",
				Start: d.decodeEnd, Dur: d.updateEnd.Sub(d.decodeEnd)})
			// The deferred loss overlaps the next step's broadcast and the
			// fleet's compute — the pipelining win, visible as a phase span
			// that outlives its own step span.
			m.cfg.Timeline.Add(events.Span{Name: "loss", Cat: "phase",
				Start: d.updateEnd, Dur: lossEnd.Sub(d.updateEnd), Args: map[string]any{"step": d.step}})
		}
		m.cfg.Events.Debug("master.step_completed", "step finished", d.step, events.NoWorker,
			events.Fields{"gathered": d.avail, "recovered": d.recovered,
				"degraded": d.degraded, "loss": loss, "elapsed": d.elapsed.String()})
		res.Run.Append(trace.StepRecord{
			Step:              d.step,
			Available:         d.avail,
			Chosen:            d.recovered / st.C(),
			RecoveredFraction: float64(d.recovered) / float64(n),
			Partitions:        d.recParts,
			Alive:             d.aliveAt,
			Degraded:          d.degraded,
			Folded:            d.folded,
			Loss:              loss,
			Elapsed:           d.elapsed,
		})
		if m.cfg.LossThreshold > 0 && loss <= m.cfg.LossThreshold {
			res.Converged = true
			res.StepsToThreshold = d.step + 1
			return true
		}
		if m.cfg.Checkpoint != nil && (d.step+1)%m.cfg.CheckpointEvery == 0 && d.step+1 < m.cfg.MaxSteps {
			saveCheckpoint(d.step+1, res.Run.Steps(), false)
		}
		return false
	}

	for step := startStep; step < m.cfg.MaxSteps; step++ {
		select {
		case <-m.stop:
			if prev != nil && finalize(prev) {
				// The deferred record converged: the run finished on its own
				// before the stop could take effect.
				res.Params = params
				if m.cfg.Checkpoint != nil {
					saveCheckpoint(startStep+res.Run.Steps(), res.Run.Steps(), true)
				}
				return res, nil
			}
			// Params are exactly the post-step-(step−1) state (plus any
			// landed folds), so the checkpoint resumes at step.
			interrupted(step, res.Run.Steps())
			res.Params = params
			return res, nil
		default:
		}
		m.mu.Lock()
		m.running = true
		m.curStep = step
		// Rejoin handshakes read curParams concurrently with the updates
		// below, so they get their own copy.
		m.curParams = append([]float64(nil), params...)
		m.mu.Unlock()
		bcastStart := time.Now()
		m.broadcast(&Envelope{Kind: MsgStep, Step: step, Params: params})
		stepStart := time.Now()

		// The fleet is computing step now; finalize the previous step's
		// loss and record under that window.
		if prev != nil {
			done := finalize(prev)
			prev = nil
			if done {
				break
			}
		}

		avail := bitset.New(n)
		coded := make([][]float64, n)
		folded = 0
		accept := func(a arrival) {
			if a.step != step || a.worker < 0 || a.worker >= n || avail.Contains(a.worker) {
				if tryFold(a) {
					return
				}
				// Stale or duplicate delivery outside the fold window: the
				// "ignored" column of the attribution report, exactly as in
				// the synchronous loop.
				if a.worker >= 0 && a.worker < n {
					s := trace.ArrivalSample{Worker: a.worker, Step: step, Compute: a.computeDur}
					if a.step == step {
						s.Arrival = a.recvAt.Sub(stepStart)
					}
					m.attribution.ObserveIgnored(s)
				}
				m.recycle(a)
				return
			}
			if len(a.coded) != dim {
				m.malformed.Add(1)
				m.cfg.Metrics.markMalformed()
				m.cfg.Events.Warn("master.malformed_gradient", "gradient rejected before decode",
					step, a.worker, events.Fields{"got_dim": len(a.coded), "want_dim": dim})
				return
			}
			avail.Add(a.worker)
			coded[a.worker] = a.coded
			m.accepted[a.worker].Add(1)
			m.cfg.Metrics.markAccepted(a.worker)
			m.attribution.ObserveAccepted(trace.ArrivalSample{
				Worker: a.worker, Step: step,
				Compute: a.computeDur, Arrival: a.recvAt.Sub(stepStart),
			})
			if a.computeDur > 0 && !a.computeStart.IsZero() {
				m.cfg.Timeline.Add(events.Span{
					Name: "compute", Cat: "compute", TID: a.worker + 1,
					Start: a.computeStart, Dur: a.computeDur,
					Args: map[string]any{"step": step},
				})
			}
		}

		degraded, gatherErr := m.gatherFastest(step, n, target, ts.flexible, avail, accept)
		if errors.Is(gatherErr, errInterrupted) {
			// Stopped mid-gather: params are still this step's pre-update
			// state, so the checkpoint replays step in the next life.
			interrupted(step, res.Run.Steps())
			res.Params = params
			return res, nil
		}
		if gatherErr != nil {
			return res, gatherErr
		}
		gatherEnd := time.Now()
		elapsed := gatherEnd.Sub(stepStart)
		if degraded {
			m.mu.Lock()
			m.degraded++
			m.mu.Unlock()
			m.cfg.Events.Warn("master.step_degraded", "gather target shrank below configured wait",
				step, events.NoWorker, events.Fields{"gathered": avail.Len(), "configured": target})
		}

		ghat, recParts, err := st.Recover(avail, coded)
		if err != nil {
			return res, fmt.Errorf("cluster: step %d: %w", step, err)
		}
		decodeEnd := time.Now()
		recovered := len(recParts)
		m.cfg.Metrics.observeStep(elapsed, float64(recovered)/float64(n), degraded)
		if recovered > 0 {
			linalg.AXPY(params, -m.cfg.LearningRate/float64(recovered), ghat)
		}
		m.recycleGathered(avail, coded)
		updateEnd := time.Now()
		prev = &deferredStep{step: step, avail: avail.Len(), recovered: recovered,
			aliveAt: m.countAlive(), folded: folded, recParts: recParts, degraded: degraded,
			elapsed: elapsed, bcastStart: bcastStart, stepStart: stepStart,
			gatherEnd: gatherEnd, decodeEnd: decodeEnd, updateEnd: updateEnd}

		if m.cfg.Staleness > 0 {
			g := ghat
			if g == nil {
				g = make([]float64, dim)
			}
			mask := bitset.New(n)
			for _, pt := range recParts {
				mask.Add(pt)
			}
			pending = append(pending, &pendingStep{step: step, avail: avail, mask: mask, g: g, r: recovered})
			// A gradient for step s can fold while steps s+1..s+k gather;
			// gathering step+1 next, keep entries with step s > step−k.
			keep := pending[:0]
			for _, p := range pending {
				if p.step > step-m.cfg.Staleness {
					keep = append(keep, p)
				}
			}
			pending = keep
		}
	}
	if prev != nil {
		finalize(prev)
	}
	if !res.Converged {
		res.StepsToThreshold = m.cfg.MaxSteps
	}
	res.Params = params
	if m.cfg.Checkpoint != nil {
		saveCheckpoint(startStep+res.Run.Steps(), res.Run.Steps(), true)
	}
	return res, nil
}

// writeCheckpoint persists one durable snapshot. Failures are counted and
// logged but do not stop training — losing durability is better than
// losing the run.
func (m *Master) writeCheckpoint(params []float64, nextStep, records int, completed bool) {
	st := m.cfg.Strategy
	m.mu.Lock()
	gen := m.generation
	runID := m.runID
	m.mu.Unlock()
	cst := checkpoint.State{
		Version:         checkpoint.Version,
		RunID:           runID,
		Generation:      gen,
		Scheme:          st.Name(),
		N:               st.N(),
		C:               st.C(),
		Seed:            m.cfg.Seed,
		W:               m.cfg.W,
		Step:            nextStep,
		Params:          checkpoint.Float64sToBytes(params),
		EventCursor:     m.cfg.Events.Total(),
		RecordCursor:    records,
		Completed:       completed,
		SavedAtUnixNano: time.Now().UnixNano(),
	}
	if rs, ok := st.(engine.RandStateful); ok {
		cst.DecoderSeed, cst.DecoderDraws = rs.RandState()
	}
	info, err := m.cfg.Checkpoint.Save(nextStep, &cst)
	if err != nil {
		m.cfg.Metrics.markCheckpointError()
		m.cfg.Events.Error("master.checkpoint_error", "checkpoint write failed", nextStep,
			events.NoWorker, events.Fields{"error": err.Error()})
		return
	}
	m.lastCkptStep.Store(int64(nextStep))
	m.lastCkptUnixNano.Store(time.Now().UnixNano())
	m.cfg.Metrics.markCheckpointWrite(info.Size, nextStep)
	m.cfg.Events.Info("master.checkpoint_written", "durable checkpoint saved", nextStep,
		events.NoWorker, events.Fields{"file": info.File, "bytes": info.Size, "completed": completed})
}

// gatherFastest implements the fastest-w gather with graceful degradation:
// when fewer than waitFor gradients remain achievable, a flexible scheme
// shrinks its target to the achievable set (IS-GC decodes any subset) and
// the step is marked degraded; a rigid scheme fails fast with a diagnostic
// instead of hanging forever.
func (m *Master) gatherFastest(step, n, waitFor int, flexible bool, avail *bitset.Set, accept func(arrival)) (bool, error) {
	var timeout <-chan time.Time
	if m.cfg.StepTimeout > 0 {
		timer := time.NewTimer(m.cfg.StepTimeout)
		defer timer.Stop()
		timeout = timer.C
	}
	for {
		target := waitFor
		if reachable := m.achievable(avail); reachable < waitFor {
			if !flexible {
				return false, fmt.Errorf(
					"cluster: step %d: only %d of %d workers reachable; rigid scheme %s needs %d — failing fast",
					step, m.countAlive(), n, m.cfg.Strategy.Name(), waitFor)
			}
			if reachable == 0 {
				return false, fmt.Errorf("cluster: step %d: all %d workers lost", step, n)
			}
			target = reachable
		}
		if avail.Len() >= target {
			return avail.Len() < waitFor, nil
		}
		select {
		case a := <-m.grads:
			accept(a)
		case <-m.wakeup:
			// Liveness changed: recompute the target on the next pass.
		case <-m.stop:
			return false, errInterrupted
		case <-timeout:
			// Alive workers exist but the gradients are not coming (lossy
			// links, drop faults): proceed degraded rather than stall.
			if flexible && !avail.Empty() {
				return true, nil
			}
			return false, fmt.Errorf(
				"cluster: step %d: gathered %d of %d needed gradients within %v (scheme %s)",
				step, avail.Len(), waitFor, m.cfg.StepTimeout, m.cfg.Strategy.Name())
		}
	}
}

// gatherDeadline implements the Sec. IV deadline policy with liveness
// awareness: accept everything until the deadline, stop early when no more
// gradients can arrive, and — when nobody beat the deadline — block for
// the first arrival only while someone is alive to produce it.
func (m *Master) gatherDeadline(step, n int, avail *bitset.Set, accept func(arrival)) error {
	timer := time.NewTimer(m.cfg.Deadline)
	defer timer.Stop()
gather:
	for avail.Len() < n {
		if m.achievable(avail) <= avail.Len() {
			break // every remaining worker is dead; waiting is pointless
		}
		select {
		case a := <-m.grads:
			accept(a)
		case <-m.wakeup:
		case <-m.stop:
			return errInterrupted
		case <-timer.C:
			break gather
		}
	}
	// The step must make progress: if nobody beat the deadline, block for
	// the first arrival of this step — but only while someone is alive to
	// produce it, and never past the step timeout.
	var timeout <-chan time.Time
	if m.cfg.StepTimeout > 0 {
		t := time.NewTimer(m.cfg.StepTimeout)
		defer t.Stop()
		timeout = t.C
	}
	for avail.Empty() {
		if m.countAlive() == 0 {
			return fmt.Errorf("cluster: step %d: all %d workers lost", step, n)
		}
		select {
		case a := <-m.grads:
			accept(a)
		case <-m.wakeup:
		case <-m.stop:
			return errInterrupted
		case <-timeout:
			return fmt.Errorf("cluster: step %d: no gradient within step timeout %v", step, m.cfg.StepTimeout)
		}
	}
	return nil
}

// broadcast sends e to every live worker. The connection list is
// snapshotted under the lock but the sends happen outside it, each bounded
// by the write timeout, so one stalled socket can neither wedge
// registration/shutdown paths nor stall the other workers; a failed send
// evicts the connection (its reader marks the worker dead).
//
// A step broadcast writes straight from the step loop's live params
// vector, with no copy: send returns only once the bytes are in the
// kernel, and no step loop mutates params before broadcast returns.
func (m *Master) broadcast(e *Envelope) {
	type target struct {
		id int
		c  *conn
	}
	m.mu.Lock()
	conns := make([]target, 0, len(m.workers))
	for id, ws := range m.workers {
		if ws != nil && ws.alive {
			conns = append(conns, target{id: id, c: ws.c})
		}
	}
	m.mu.Unlock()
	for _, t := range conns {
		if err := t.c.send(e); err != nil {
			m.cfg.Metrics.markEviction()
			if e.Kind != MsgStop {
				m.cfg.Events.Warn("master.worker_send_failed", "send failed; closing connection",
					e.Step, t.id, events.Fields{"kind": e.Kind, "error": err.Error()})
			}
			_ = t.c.close()
		}
	}
}

func (m *Master) closeAll() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, ws := range m.workers {
		if ws != nil {
			_ = ws.c.close()
			for _, lc := range ws.lanes {
				_ = lc.close()
			}
		}
	}
}
