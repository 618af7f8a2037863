package cluster

import (
	"bytes"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

// faultyOpts configures one fault-injection cluster run.
type faultyOpts struct {
	w           int
	maxSteps    int
	stepTimeout time.Duration
	liveness    time.Duration
	heartbeat   time.Duration
	reconnect   time.Duration
	faults      []straggler.Fault // per worker, may be nil
	delays      []straggler.Model // per worker, may be nil
	events      *events.Log       // shared by master and workers, may be nil
}

// runFaultyCluster launches a master plus its fleet with fault injection
// and returns the master (for post-run accounting) and Run's outcome. A
// watchdog fails the test if the master hangs — the exact regression this
// PR's liveness tracking is meant to prevent.
func runFaultyCluster(t *testing.T, st engine.Strategy, o faultyOpts) (*Master, *engine.Result, error) {
	t.Helper()
	n := st.N()
	data := testData(t)
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	master, err := NewMaster(MasterConfig{
		Addr:            "127.0.0.1:0",
		Strategy:        st,
		Model:           mdl,
		Data:            data,
		LearningRate:    0.3,
		W:               o.w,
		MaxSteps:        o.maxSteps,
		Seed:            42,
		StepTimeout:     o.stepTimeout,
		LivenessTimeout: o.liveness,
		Events:          o.events,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(n)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pids := st.Partitions(i)
			loaders := make([]*dataset.Loader, len(pids))
			for j, d := range pids {
				var err error
				loaders[j], err = dataset.NewLoader(parts[d], 16, 42+int64(d)*7919)
				if err != nil {
					t.Error(err)
					return
				}
			}
			var fault straggler.Fault
			if o.faults != nil {
				fault = o.faults[i]
			}
			var delay straggler.Model
			if o.delays != nil {
				delay = o.delays[i]
			}
			wk, err := NewWorker(WorkerConfig{
				Addr:              master.Addr(),
				ID:                i,
				Partitions:        pids,
				Loaders:           loaders,
				Model:             mdl,
				Encode:            SumEncoder(),
				Delay:             delay,
				DelaySeed:         int64(i) + 1,
				Fault:             fault,
				FaultSeed:         int64(i) + 1,
				HeartbeatInterval: o.heartbeat,
				ReconnectTimeout:  o.reconnect,
				Events:            o.events,
			})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := wk.Run(); err != nil {
				t.Error(err)
			}
		}()
	}

	var res *engine.Result
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, runErr = master.Run()
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("master hung: the liveness-aware gather must terminate in bounded time")
	}
	wg.Wait()
	return master, res, runErr
}

// eventGate is an event-log sink that keeps the JSONL stream and closes
// open the first time an event of type typ is written: the hook a fault
// drill uses to gate its later steps on a lifecycle event.
type eventGate struct {
	typ  string
	open chan struct{}
	once sync.Once
	buf  bytes.Buffer // written under the events.Log's lock
}

func newEventGate(typ string) *eventGate {
	return &eventGate{typ: typ, open: make(chan struct{})}
}

func (g *eventGate) Write(p []byte) (int, error) {
	if bytes.Contains(p, []byte(`"type":"`+g.typ+`"`)) {
		g.once.Do(func() { close(g.open) })
	}
	return g.buf.Write(p)
}

// gatedDelay is a zero-delay straggler.Model that holds its worker's
// upload from the from-th served step on (one sample per step) until open
// closes. It paces a run from its fault step, so an injected rejoin cannot
// race the last step; the bounded wait turns a rejoin that never comes
// into a failed assertion instead of a hung test.
type gatedDelay struct {
	from int
	open <-chan struct{}
	n    int
}

func (g *gatedDelay) Sample(*rand.Rand) time.Duration {
	if g.n >= g.from {
		select {
		case <-g.open:
		case <-time.After(20 * time.Second):
		}
	}
	g.n++
	return 0
}

func (g *gatedDelay) String() string { return "gated" }

// newCRStrategy builds IS-GC over CR(n, 2) — the flexible scheme used by
// the fault scenarios (it can decode any subset of workers).
func newCRStrategy(t *testing.T, n int) engine.Strategy {
	t.Helper()
	p, err := placement.CR(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, 7))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// The acceptance scenario: n=12, w=8, three workers crash at step 5. The
// alive set (9) still covers the wait target (8), so training proceeds at
// full target with zero degradation and converges.
func TestClusterSurvivesCrashesWithinSlack(t *testing.T) {
	st := newCRStrategy(t, 12)
	faults := make([]straggler.Fault, 12)
	for i := 0; i < 3; i++ {
		faults[i] = straggler.CrashAt{Step: 5}
	}
	_, res, err := runFaultyCluster(t, st, faultyOpts{w: 8, maxSteps: 15, faults: faults})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	if res.Run.Steps() != 15 {
		t.Fatalf("steps = %d, want 15: the run must survive the crashes", res.Run.Steps())
	}
	for _, rec := range res.Run.Records {
		if rec.Available != 8 {
			t.Fatalf("step %d gathered %d, want the full target 8 (9 alive ≥ 8)", rec.Step, rec.Available)
		}
		if rec.Degraded {
			t.Fatalf("step %d degraded though the alive set covers the target", rec.Step)
		}
	}
	// Liveness accounting: once the crashes land, the records report the
	// shrunken fleet.
	last := res.Run.Records[len(res.Run.Records)-1]
	if last.Alive != 9 {
		t.Fatalf("final alive = %d, want 9 after 3 crashes", last.Alive)
	}
	first, lastLoss := res.Run.Records[0].Loss, res.Run.FinalLoss()
	if !(lastLoss < first) {
		t.Fatalf("loss %v → %v, expected decrease despite crashes", first, lastLoss)
	}
}

// The over-slack acceptance scenario: five crashes leave 7 alive, below
// the w=8 target. The flexible scheme degrades to the alive set instead of
// hanging and keeps training.
func TestClusterDegradesBeyondSlack(t *testing.T) {
	st := newCRStrategy(t, 12)
	faults := make([]straggler.Fault, 12)
	for i := 0; i < 5; i++ {
		faults[i] = straggler.CrashAt{Step: 3}
	}
	_, res, err := runFaultyCluster(t, st, faultyOpts{w: 8, maxSteps: 10, faults: faults})
	if err != nil {
		t.Fatalf("master must degrade, not fail: %v", err)
	}
	if res.Run.Steps() != 10 {
		t.Fatalf("steps = %d, want 10", res.Run.Steps())
	}
	if res.Run.DegradedSteps() == 0 {
		t.Fatal("no degraded steps recorded after losing 5 of 12 workers with w=8")
	}
	for _, rec := range res.Run.Records {
		if rec.Step < 3 && (rec.Available != 8 || rec.Degraded) {
			t.Fatalf("step %d: available=%d degraded=%v before any crash", rec.Step, rec.Available, rec.Degraded)
		}
		if rec.Step > 3 {
			if !rec.Degraded {
				t.Fatalf("step %d not degraded with only 7 alive for w=8", rec.Step)
			}
			if rec.Available > 7 {
				t.Fatalf("step %d gathered %d from 7 alive workers", rec.Step, rec.Available)
			}
			if rec.Alive != 7 {
				t.Fatalf("step %d alive = %d, want 7", rec.Step, rec.Alive)
			}
		}
	}
	first, last := res.Run.Records[0].Loss, res.Run.FinalLoss()
	if !(last < first) {
		t.Fatalf("loss %v → %v, expected decrease in degraded mode", first, last)
	}
}

// A rigid scheme cannot decode a subset: worker loss must produce a
// descriptive error in bounded time, not a hang (the master.go:234 bug).
func TestRigidSchemeFailsFastOnWorkerLoss(t *testing.T) {
	st, err := engine.NewSyncSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	faults := []straggler.Fault{nil, nil, straggler.CrashAt{Step: 2}, nil}
	_, _, runErr := runFaultyCluster(t, st, faultyOpts{w: 4, maxSteps: 20, faults: faults})
	if runErr == nil {
		t.Fatal("Sync-SGD must fail when a worker dies")
	}
	if !strings.Contains(runErr.Error(), "failing fast") {
		t.Fatalf("error %q must carry the fail-fast diagnostic", runErr)
	}
}

// Disconnect-then-rejoin round trip: the worker drops its connection
// mid-run, redials with backoff, re-registers, and the master accepts the
// rejoin instead of treating the reborn id as a fatal duplicate.
func TestWorkerDisconnectRejoin(t *testing.T) {
	st := newCRStrategy(t, 4)
	faults := []straggler.Fault{nil, nil, straggler.DisconnectAt{Step: 3}, nil}
	// Worker 0 holds its step-3 upload until the master logs the rejoin,
	// so the shrunken fleet cannot finish the run before worker 2 redials.
	gate := newEventGate("master.worker_rejoined")
	delays := []straggler.Model{&gatedDelay{from: 3, open: gate.open}, nil, nil, nil}
	master, res, err := runFaultyCluster(t, st, faultyOpts{
		w: 4, maxSteps: 12, faults: faults, delays: delays, reconnect: 10 * time.Second,
		events: events.New(events.Config{Writer: gate}),
	})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	if res.Run.Steps() != 12 {
		t.Fatalf("steps = %d, want 12", res.Run.Steps())
	}
	if master.Rejoins() != 1 {
		t.Fatalf("rejoins = %d, want 1", master.Rejoins())
	}
	// After the round trip the full fleet serves again.
	last := res.Run.Records[len(res.Run.Records)-1]
	if last.Available != 4 || last.Alive != 4 {
		t.Fatalf("final step: available=%d alive=%d, want the full fleet back", last.Available, last.Alive)
	}
	// The wanderer missed at most a couple of steps around the disconnect.
	counts := master.ArrivalCounts()
	if counts[2] < 9 {
		t.Fatalf("worker 2 arrived only %d/12 times; the rejoin must resume participation", counts[2])
	}
}

// A rejoining worker is re-handed the in-flight step; the fault model
// must not re-fire on that re-delivery. Regression: DisconnectAt used to
// re-trigger on the re-delivered step, tearing the fresh connection down
// in a tight loop (thousands of rejoins) until the master advanced past
// the step. The slow worker stretches the disconnect step to ~300 ms,
// which is exactly the window the storm needs.
func TestDisconnectDoesNotRefireOnRedeliveredStep(t *testing.T) {
	st := newCRStrategy(t, 4)
	faults := []straggler.Fault{nil, nil, straggler.DisconnectAt{Step: 3}, nil}
	delays := []straggler.Model{straggler.Constant{D: 300 * time.Millisecond}, nil, nil, nil}
	master, res, err := runFaultyCluster(t, st, faultyOpts{
		w: 4, maxSteps: 6, faults: faults, delays: delays,
		reconnect: 10 * time.Second,
	})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	if res.Run.Steps() != 6 {
		t.Fatalf("steps = %d, want 6", res.Run.Steps())
	}
	if got := master.Rejoins(); got != 1 {
		t.Fatalf("rejoins = %d, want exactly 1 — the fault re-fired on the re-delivered step", got)
	}
}

// Workers that heartbeat but never upload (pure gradient loss) must not
// stall the fastest-w gather: the step timeout degrades the step.
func TestDropFaultDegradesViaStepTimeout(t *testing.T) {
	st := newCRStrategy(t, 4)
	faults := []straggler.Fault{
		nil,
		straggler.DropWithProb{P: 1},
		straggler.DropWithProb{P: 1},
		straggler.DropWithProb{P: 1},
	}
	_, res, err := runFaultyCluster(t, st, faultyOpts{
		w: 4, maxSteps: 3, faults: faults,
		stepTimeout: 250 * time.Millisecond, heartbeat: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	for _, rec := range res.Run.Records {
		if rec.Available != 1 {
			t.Fatalf("step %d gathered %d, want only the one uploading worker", rec.Step, rec.Available)
		}
		if !rec.Degraded {
			t.Fatalf("step %d must be marked degraded (timeout-bounded gather)", rec.Step)
		}
		if rec.Alive != 4 {
			t.Fatalf("step %d alive = %d; droppers are alive, just lossy", rec.Step, rec.Alive)
		}
	}
}

// A registered connection that goes completely silent (no heartbeats, no
// gradients — a hung process, not a dead socket) is reaped by the liveness
// monitor and the gather degrades around it.
func TestLivenessTimeoutReapsSilentWorker(t *testing.T) {
	st, err := engine.NewISSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	data := testData(t)
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	master, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 2, MaxSteps: 3, Seed: 42,
		LivenessTimeout: 400 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(2)
	if err != nil {
		t.Fatal(err)
	}

	// Worker 0 is real and heartbeats fast enough to stay off the reaper's
	// list even while idle between steps.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		loader, err := dataset.NewLoader(parts[0], 16, 42)
		if err != nil {
			t.Error(err)
			return
		}
		wk, err := NewWorker(WorkerConfig{
			Addr: master.Addr(), ID: 0, Partitions: []int{0},
			Loaders: []*dataset.Loader{loader}, Model: mdl, Encode: SumEncoder(),
			HeartbeatInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = wk.Run()
	}()

	// Worker 1 registers and then hangs: open socket, no traffic at all
	// (it never even reads the master's ack).
	raw, err := net.Dial("tcp", master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	silent := newConn(raw, 0, nil)
	if err := silent.send(&Envelope{Kind: MsgHello, Worker: 1, Wire: WireBinary2, Shards: 1}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var res *engine.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = master.Run()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("master hung on a silent worker")
	}
	wg.Wait()
	if runErr != nil {
		t.Fatalf("master: %v", runErr)
	}
	if res.Run.Steps() != 3 {
		t.Fatalf("steps = %d, want 3", res.Run.Steps())
	}
	if res.Run.DegradedSteps() != 3 {
		t.Fatalf("degraded steps = %d, want all 3 (only worker 0 ever uploads)", res.Run.DegradedSteps())
	}
	last := res.Run.Records[len(res.Run.Records)-1]
	if last.Alive != 1 {
		t.Fatalf("final alive = %d; the silent worker must be reaped", last.Alive)
	}
}

// A gradient whose dimension mismatches the model must be rejected before
// it reaches Strategy.Recover / linalg.AXPY, where it would panic the
// master mid-run.
func TestMasterRejectsMalformedGradient(t *testing.T) {
	st, err := engine.NewSyncSGD(1)
	if err != nil {
		t.Fatal(err)
	}
	data := testData(t)
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	dim := len(mdl.InitParams(42))
	master, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 1, MaxSteps: 1, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var res *engine.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = master.Run()
	}()

	raw, err := net.Dial("tcp", master.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := newConn(raw, 0, nil)
	if _, err := clientHello(c, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	step, err := c.recv()
	if err != nil || step.Kind != MsgStep {
		t.Fatalf("expected a step broadcast, got %v %v", step, err)
	}
	if len(step.Params) != dim {
		t.Fatalf("params dim = %d, want %d", len(step.Params), dim)
	}
	// First a malformed gradient (wrong dimension), then a valid one.
	if err := c.send(&Envelope{Kind: MsgGradient, Worker: 0, Step: step.Step, Coded: []float64{1, 2, 3}, Total: 3}); err != nil {
		t.Fatal(err)
	}
	if err := c.send(&Envelope{Kind: MsgGradient, Worker: 0, Step: step.Step, Coded: make([]float64, dim), Total: dim}); err != nil {
		t.Fatal(err)
	}

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("master hung after a malformed gradient")
	}
	if runErr != nil {
		t.Fatalf("master must survive the malformed gradient: %v", runErr)
	}
	if res.Run.Steps() != 1 {
		t.Fatalf("steps = %d, want 1", res.Run.Steps())
	}
	if master.MalformedGradients() != 1 {
		t.Fatalf("malformed count = %d, want 1", master.MalformedGradients())
	}
}

// TestTruncatedPayloadReleasesSpan: a lane that dies halfway through a
// gradient payload must hand its reserved span back. The master reserves
// the span before reading the payload, so a read cut short would
// otherwise leave it behind, and the worker's re-upload of that step
// after rejoining would be refused as an overlap and counted malformed.
// Worker 1, a plain single-lane peer, holds its gradient until worker 0
// is back, so the step waits for both.
func TestTruncatedPayloadReleasesSpan(t *testing.T) {
	st, err := engine.NewISSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	dim := len(mdl.InitParams(42))
	gate := newEventGate("master.worker_evicted")
	master, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: testData(t),
		LearningRate: 0.3, W: 2, MaxSteps: 1, Seed: 42,
		Events: events.New(events.Config{Writer: gate}),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var res *engine.Result
	var runErr error
	go func() {
		defer close(done)
		res, runErr = master.Run()
	}()

	dial := func() *conn {
		raw, err := net.Dial("tcp", master.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return newConn(raw, 0, nil)
	}
	c := dial()
	defer c.close()
	ack, err := clientHello(c, 0, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Shards != 2 {
		t.Fatalf("granted %d lanes, want 2", ack.Shards)
	}
	lane := dial()
	defer lane.close()
	if err := laneHello(lane, 0, 1, ack.Gen); err != nil {
		t.Fatal(err)
	}
	other := dial()
	defer other.close()
	if _, err := clientHello(other, 1, 0, 1); err != nil {
		t.Fatal(err)
	}
	step, err := c.recv()
	if err != nil || step.Kind != MsgStep {
		t.Fatalf("expected a step broadcast, got %v %v", step, err)
	}
	s := step.Step
	if _, err := other.recv(); err != nil {
		t.Fatal(err)
	}

	// Lane 1 carries the upper span; cut its payload off halfway.
	span := shardSpans(dim, 2)[1]
	frame, err := EncodeSubFrame(&Envelope{Kind: MsgGradient, Worker: 0, Step: s,
		Coded: make([]float64, span[1]), Offset: span[0], Total: dim})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lane.raw.Write(frame[:frameHeaderSizeV2+8*(span[1]/2)]); err != nil {
		t.Fatal(err)
	}
	_ = lane.close()
	select {
	case <-gate.open:
	case <-time.After(20 * time.Second):
		t.Fatal("master never evicted the worker whose lane died mid-payload")
	}
	asm := master.shardAsmFor(0)
	asm.mu.Lock()
	var left int
	if sb := asm.steps[s]; sb != nil {
		left = len(sb.spans)
	}
	asm.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d reserved spans left behind by the truncated payload", left)
	}

	// Rejoin on one lane and re-upload the whole step; then worker 1
	// delivers.
	_ = c.close()
	c2 := dial()
	defer c2.close()
	if _, err := clientHello(c2, 0, s, 1); err != nil {
		t.Fatal(err)
	}
	resume, err := c2.recv()
	if err != nil || resume.Kind != MsgStep || resume.Step != s {
		t.Fatalf("expected step %d re-sent on rejoin, got %v %v", s, resume, err)
	}
	for _, up := range []struct {
		c  *conn
		id int
	}{{c2, 0}, {other, 1}} {
		if err := up.c.send(&Envelope{Kind: MsgGradient, Worker: up.id, Step: s,
			Coded: make([]float64, dim), Total: dim}); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("master never finished the step")
	}
	if runErr != nil {
		t.Fatalf("master: %v", runErr)
	}
	if res.Run.Steps() != 1 {
		t.Fatalf("steps = %d, want 1", res.Run.Steps())
	}
	if got := master.MalformedGradients(); got != 0 {
		t.Fatalf("malformed count = %d, want 0: the re-upload was refused", got)
	}
	if got := master.ArrivalCounts()[0]; got != 1 {
		t.Fatalf("worker 0's re-upload gathered %d times, want 1", got)
	}
	if got := master.Rejoins(); got != 1 {
		t.Fatalf("rejoins = %d, want 1", got)
	}
}
