package cluster

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/model"
)

// pipePair returns two connected conns over an in-memory duplex pipe.
func pipePair() (*conn, *conn) {
	a, b := net.Pipe()
	return newConn(a, 0, nil), newConn(b, 0, nil)
}

func TestEnvelopeRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.close()
	defer b.close()

	want := &Envelope{
		Kind:   MsgGradient,
		Worker: 3,
		Step:   17,
		Coded:  []float64{1.5, -2.25, 0},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := a.send(want); err != nil {
			t.Error(err)
		}
	}()
	got, err := b.recv()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if got.Kind != want.Kind || got.Worker != want.Worker || got.Step != want.Step {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if len(got.Coded) != 3 || got.Coded[1] != -2.25 {
		t.Fatalf("coded = %v", got.Coded)
	}
}

func TestEnvelopeParamsRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.close()
	defer b.close()

	params := make([]float64, 1000)
	for i := range params {
		params[i] = float64(i) * 0.5
	}
	go func() {
		_ = a.send(&Envelope{Kind: MsgStep, Step: 2, Params: params})
	}()
	got, err := b.recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != MsgStep || len(got.Params) != 1000 || got.Params[999] != 499.5 {
		t.Fatalf("bad round trip: kind=%s len=%d", got.Kind, len(got.Params))
	}
}

func TestRecvAfterCloseFails(t *testing.T) {
	a, b := pipePair()
	a.close()
	b.close()
	if _, err := b.recv(); err == nil {
		t.Fatal("recv on closed conn must fail")
	}
	if err := a.send(&Envelope{Kind: MsgStop}); err == nil {
		t.Fatal("send on closed conn must fail")
	}
}

func TestDialWithRetryTimesOut(t *testing.T) {
	start := time.Now()
	_, err := dialWithRetry("127.0.0.1:1", 200*time.Millisecond) // port 1: nothing listens
	if err == nil {
		t.Fatal("expected dial failure")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ran too long: %v", elapsed)
	}
}

// TestConnBinaryUpgradeRoundTrip drives the codec switch on a raw conn
// pair: gob hello exchange, upgrade on both ends, then binaryv2 frames in
// both directions — the protocol sequence every connection runs. The
// switch happens at a message boundary over the one bufio.Reader both
// phases share, so no frame byte may be lost to gob's readahead.
func TestConnBinaryUpgradeRoundTrip(t *testing.T) {
	a, b := pipePair()
	defer a.close()
	defer b.close()

	done := make(chan error, 1)
	go func() {
		hello, err := b.recv() // gob
		if err != nil {
			done <- err
			return
		}
		if hello.Wire != WireBinary2 || hello.Shards != 1 {
			done <- fmt.Errorf("hello proposed wire %q with %d lanes", hello.Wire, hello.Shards)
			return
		}
		if err := b.send(&Envelope{Kind: MsgHello, Worker: hello.Worker, Wire: WireBinary2, Shards: 1}); err != nil {
			done <- err
			return
		}
		b.upgrade(false)
		g, err := b.recv() // first frame
		if err != nil {
			done <- err
			return
		}
		if g.Kind != MsgGradient || len(g.Coded) != 3 || g.Coded[2] != -0.5 || g.Total != 3 {
			done <- fmt.Errorf("gradient mangled after upgrade: %+v", g)
			return
		}
		done <- b.send(&Envelope{Kind: MsgStep, Step: 1, Params: []float64{9, 8}})
	}()

	ack, err := clientHello(a, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Wire != WireBinary2 || ack.Shards != 1 {
		t.Fatalf("negotiated wire %q with %d lanes", ack.Wire, ack.Shards)
	}
	if err := a.send(&Envelope{Kind: MsgGradient, Worker: 4, Step: 0, Coded: []float64{1, 2, -0.5}, Total: 3}); err != nil {
		t.Fatal(err)
	}
	step, err := a.recv()
	if err != nil {
		t.Fatal(err)
	}
	if step.Kind != MsgStep || len(step.Params) != 2 || step.Params[0] != 9 {
		t.Fatalf("step mangled after upgrade: %+v", step)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// badHellos are registrations the master must refuse by closing the
// connection: a stranger's worker id, and every hello that does not
// propose the one data-plane codec — no Wire at all, "gob" or
// "binaryv1".
var badHellos = []struct {
	name  string
	hello *Envelope
}{
	{"out-of-range id", &Envelope{Kind: MsgHello, Worker: 99, Wire: WireBinary2, Shards: 1}},
	{"no wire", &Envelope{Kind: MsgHello, Worker: 0}},
	{"gob", &Envelope{Kind: MsgHello, Worker: 0, Wire: "gob"}},
	{"binaryv1", &Envelope{Kind: MsgHello, Worker: 1, Wire: "binaryv1"}},
}

// expectRefused sends one hello to the master at addr and reports an error
// unless the master closes the connection without answering.
func expectRefused(addr string, hello *Envelope) error {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c := newConn(raw, 0, nil)
	defer c.close()
	if err := c.send(hello); err != nil {
		return err
	}
	if e, err := c.recv(); err == nil {
		return fmt.Errorf("master answered %+v instead of closing the connection", e)
	}
	return nil
}

func TestMasterRejectsBadHello(t *testing.T) {
	st, err := engine.NewSyncSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dataset.SyntheticLinear(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st,
		Model: model.LinearRegression{Features: 2}, Data: data,
		LearningRate: 0.1, MaxSteps: 1, AcceptTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Run()
		done <- err
	}()
	// Each bad hello gets its connection dropped (the master must survive
	// strangers mid-run) and, with no valid workers ever registering, the
	// master fails the accept phase on its timeout.
	for _, tc := range badHellos {
		if err := expectRefused(m.Addr(), tc.hello); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	if err := <-done; err == nil {
		t.Fatal("master must not start training without valid workers")
	}

	// A valid fleet registering alongside the same bad hellos still trains
	// to completion.
	res, _ := runShapedCluster(t, nil, func(i int, c *WorkerConfig) {
		if i != 0 {
			return
		}
		for _, tc := range badHellos {
			if err := expectRefused(c.Addr, tc.hello); err != nil {
				t.Errorf("%s beside a valid fleet: %v", tc.name, err)
			}
		}
	})
	if res.Run.Steps() != 8 {
		t.Fatalf("valid fleet ran %d steps, want 8", res.Run.Steps())
	}
}

func TestMasterRejectsDuplicateWorker(t *testing.T) {
	st, err := engine.NewSyncSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dataset.SyntheticLinear(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st,
		Model: model.LinearRegression{Features: 2}, Data: data,
		LearningRate: 0.1, MaxSteps: 1, AcceptTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Run()
		done <- err
	}()
	dial := func() *conn {
		raw, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return newConn(raw, 0, nil)
	}
	c1 := dial()
	defer c1.close()
	if _, err := clientHello(c1, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	c2 := dial()
	defer c2.close()
	if _, err := clientHello(c2, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	// The duplicate registration for the live worker 0 is refused (its
	// connection closes right after the ack) while the first one stays
	// registered; the master then times out waiting for the still-missing
	// worker 1.
	if _, err := c2.recv(); err == nil {
		t.Fatal("master must close the duplicate's connection")
	}
	if err := <-done; err == nil {
		t.Fatal("master must not start training with a missing worker")
	}
}

// TestMasterRefusesUngrantedLane: a worker granted one lane cannot attach
// more — the master's GatherShards cap bounds the sockets a worker opens.
func TestMasterRefusesUngrantedLane(t *testing.T) {
	st, err := engine.NewSyncSGD(1)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dataset.SyntheticLinear(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st,
		Model: model.LinearRegression{Features: 2}, Data: data,
		LearningRate: 0.1, MaxSteps: 1, AcceptTimeout: 2 * time.Second,
		GatherShards: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := m.Run()
		done <- err
	}()
	dial := func() *conn {
		raw, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		return newConn(raw, 0, nil)
	}
	c := dial()
	ack, err := clientHello(c, 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ack.Shards != 1 {
		t.Fatalf("master capped at one lane granted %d", ack.Shards)
	}
	lc := dial()
	defer lc.close()
	if err := laneHello(lc, 0, 1, ack.Gen); err == nil {
		t.Fatal("master attached a lane it never granted")
	}
	// Losing the only worker fails the rigid run fast.
	c.close()
	<-done
}

func TestMasterAcceptTimeout(t *testing.T) {
	st, err := engine.NewSyncSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := dataset.SyntheticLinear(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st,
		Model: model.LinearRegression{Features: 2}, Data: data,
		LearningRate: 0.1, MaxSteps: 1, AcceptTimeout: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := m.Run(); err == nil {
		t.Fatal("master must fail when no workers register")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("accept timeout not enforced")
	}
}
