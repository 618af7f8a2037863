// Package cluster is the real distributed runtime: a master and n workers
// speaking a negotiated protocol over TCP (stdlib net only). It plays the
// role Ray plays in the paper's implementation (Sec. VIII-A): workers train
// on their partitions' mini-batches, upload coded gradients, and the master
// gathers the fastest w (the ray.wait(w) equivalent), decodes with the
// configured strategy, updates the parameters, and broadcasts them.
//
// Every connection opens in gob for the hello exchange — the low-rate
// control step where a self-describing encoding is cheap — and then both
// sides switch to the one data-plane codec, the binaryv2 frames of
// subframe.go, for the params/gradient hot path. The hello names the codec
// and the worker's proposed gather-lane count; the master answers with the
// lanes it grants (one or more) and refuses, by closing the connection,
// any hello that proposes anything but binaryv2. Terminal rejects
// (MsgJobGone) and lane-attach hellos also ride in gob.
//
// Unlike the in-process engine, real workers do not just slow down — they
// die. The runtime therefore layers fault tolerance on top of the paper's
// protocol: the master tracks per-worker liveness (reader-exit notification
// plus periodic MsgHeartbeat), shrinks its gather target to the alive set
// when a flexible scheme permits it (IS-GC can decode any subset), fails
// fast for rigid schemes, and accepts mid-run rejoins from workers that
// redial after a disconnect.
//
// The engine package is the fast in-process twin used for experiments; this
// package demonstrates the same protocol end-to-end over real sockets and
// is exercised by integration tests and the examples/distributed binary.
package cluster

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"isgc/internal/metrics"
)

// ErrJobGone is the terminal registration error: the peer answered a hello
// with MsgJobGone, meaning the job this worker was serving no longer exists
// anywhere behind that address. Reconnection is pointless — callers must
// stop redialing and (in fleet mode) return the worker to the pool.
var ErrJobGone = errors.New("cluster: job gone")

// Message kinds exchanged between master and workers.
const (
	// MsgHello registers a worker with the master. A rejoining worker
	// re-sends it with Step set to its last completed step.
	MsgHello = "hello"
	// MsgStep carries parameters from master to workers for one step.
	MsgStep = "step"
	// MsgGradient carries a coded gradient from a worker to the master.
	MsgGradient = "gradient"
	// MsgHeartbeat is a periodic worker→master liveness ping; it carries
	// no payload and exists so the master can distinguish "slow" from
	// "hung" on an otherwise idle connection.
	MsgHeartbeat = "heartbeat"
	// MsgStop tells workers to shut down cleanly.
	MsgStop = "stop"
	// MsgJobGone is a terminal registration reject: the master (or a
	// control-plane tombstone standing in for one) no longer runs the job
	// this worker belongs to. A worker that receives it stops its
	// reconnect loop immediately instead of burning the redial budget —
	// fleet workers return to the control plane's pool. Rides only in gob
	// messages (the registration phase), like the hello exchange.
	MsgJobGone = "job_gone"
)

// WireBinary2 names the one data-plane codec in the hello exchange: the
// binaryv2 frames of subframe.go, whose 44-byte header carries an
// (offset, total) sub-frame geometry so one step's gradient may arrive
// split across several parallel lane connections. A worker always
// proposes it, and a master refuses any other proposal.
const WireBinary2 = "binaryv2"

// maxGatherShards caps how many parallel gather lanes one worker may
// negotiate. The win saturates with the memory bandwidth of a handful of
// decode goroutines; a hostile hello must not be able to open hundreds of
// sockets.
const maxGatherShards = 16

// maxWireNameLen caps the negotiation string a peer may claim in a hello.
const maxWireNameLen = 64

// maxVectorLen caps the Params/Coded length a peer may claim: a malformed
// or hostile envelope must not be able to commit the receiver to an absurd
// decode. 2^24 float64s is a 128 MiB vector — far beyond any model this
// runtime trains, and far below anything that would hurt the process.
const maxVectorLen = 1 << 24

// Envelope is the single wire message type; unused fields stay zero.
type Envelope struct {
	Kind string
	// Worker is the sender's worker id (Hello, Gradient, Heartbeat).
	Worker int
	// Step is the training step the message belongs to (Step, Gradient),
	// or the worker's last completed step on a rejoin Hello.
	Step int
	// Params are the model parameters (Step).
	Params []float64
	// Coded is the worker's coded gradient (Gradient).
	Coded []float64
	// ComputeStartUnixNano is when the worker began computing the gradient
	// (Gradient; worker's clock, Unix nanoseconds, 0 = not reported). With
	// ComputeDurNanos it lets the master attribute a late arrival to slow
	// compute versus slow network. Cross-machine clock skew shifts the
	// start, not the duration.
	ComputeStartUnixNano int64
	// ComputeDurNanos is how long the gradient computation took
	// (Gradient; 0 = not reported).
	ComputeDurNanos int64
	// Wire is the codec field of the hello exchange: a worker's MsgHello
	// and the master's ack both name WireBinary2, the codec for the rest
	// of the connection; a master closes a connection whose hello names
	// anything else. It rides only in gob messages — binary frames cannot
	// carry it, by construction.
	Wire string
	// Gen is the master's run generation on a MsgHello ack: 0 for a
	// first-life master, +1 per checkpoint restore or standby failover. A
	// worker that sees the generation change knows its master was reborn
	// from a durable checkpoint. Rides only in gob hello messages, like
	// Wire.
	Gen int
	// Shards is the gather-lane negotiation field of the hello exchange:
	// on a worker's MsgHello it proposes how many parallel lane
	// connections the worker wants for its gradient uploads; on the
	// master's ack it names the granted count (1 = the primary connection
	// only). Rides only in gob hello messages, like Wire.
	Shards int
	// Shard tags a lane-attach MsgHello with the lane index (1..Shards-1)
	// it registers; the primary connection is lane 0 and never sets it.
	// Rides only in gob hello messages.
	Shard int
	// Offset is the first gradient element a sub-frame carries (Gradient
	// only; single-lane uploads use 0).
	Offset int
	// Total is the full gradient dimension a sub-frame belongs to
	// (Gradient only; every gradient frame carries a positive Total).
	Total int
}

// validateEnvelope enforces the structural invariants every well-formed
// message satisfies, independent of protocol state: a known kind, non-
// negative ids, and bounded vector lengths. Semantic checks (worker id in
// range, step currency, gradient dimension) stay with the master, which
// knows the cluster shape.
func validateEnvelope(e *Envelope) error {
	switch e.Kind {
	case MsgHello, MsgStep, MsgGradient, MsgHeartbeat, MsgStop, MsgJobGone:
	default:
		return fmt.Errorf("cluster: unknown message kind %q", e.Kind)
	}
	if e.Worker < 0 {
		return fmt.Errorf("cluster: negative worker id %d in %s", e.Worker, e.Kind)
	}
	if e.Step < 0 {
		return fmt.Errorf("cluster: negative step %d in %s", e.Step, e.Kind)
	}
	if len(e.Params) > maxVectorLen {
		return fmt.Errorf("cluster: params length %d exceeds limit %d", len(e.Params), maxVectorLen)
	}
	if len(e.Coded) > maxVectorLen {
		return fmt.Errorf("cluster: coded length %d exceeds limit %d", len(e.Coded), maxVectorLen)
	}
	if e.ComputeStartUnixNano < 0 {
		return fmt.Errorf("cluster: negative compute start %d in %s", e.ComputeStartUnixNano, e.Kind)
	}
	if e.ComputeDurNanos < 0 {
		return fmt.Errorf("cluster: negative compute duration %d in %s", e.ComputeDurNanos, e.Kind)
	}
	if len(e.Wire) > maxWireNameLen {
		return fmt.Errorf("cluster: wire name length %d exceeds limit %d", len(e.Wire), maxWireNameLen)
	}
	if e.Gen < 0 {
		return fmt.Errorf("cluster: negative generation %d in %s", e.Gen, e.Kind)
	}
	if e.Shards < 0 || e.Shards > maxGatherShards {
		return fmt.Errorf("cluster: shard count %d outside [0, %d] in %s", e.Shards, maxGatherShards, e.Kind)
	}
	if e.Shard < 0 || e.Shard >= maxGatherShards {
		return fmt.Errorf("cluster: lane index %d outside [0, %d) in %s", e.Shard, maxGatherShards, e.Kind)
	}
	if e.Offset < 0 || e.Offset > maxVectorLen {
		return fmt.Errorf("cluster: sub-frame offset %d outside [0, %d] in %s", e.Offset, maxVectorLen, e.Kind)
	}
	if e.Total < 0 || e.Total > maxVectorLen {
		return fmt.Errorf("cluster: sub-frame total %d outside [0, %d] in %s", e.Total, maxVectorLen, e.Kind)
	}
	if e.Total == 0 && e.Offset != 0 {
		return fmt.Errorf("cluster: sub-frame offset %d without a total in %s", e.Offset, e.Kind)
	}
	if e.Total > 0 && e.Offset+len(e.Coded) > e.Total {
		return fmt.Errorf("cluster: sub-frame [%d, %d) exceeds total %d in %s",
			e.Offset, e.Offset+len(e.Coded), e.Total, e.Kind)
	}
	return nil
}

// decodeEnvelope decodes and validates one envelope from dec. A malformed
// or truncated stream must yield an error, never a crash: gob's own error
// paths are converted, any decoder panic is recovered, and the result is
// validated before anyone trusts it. This is the single choke point every
// received message passes through — the fuzz target FuzzDecodeMessage
// hammers it with adversarial bytes.
func decodeEnvelope(dec *gob.Decoder) (e *Envelope, err error) {
	defer func() {
		if r := recover(); r != nil {
			e, err = nil, fmt.Errorf("cluster: decode panic: %v", r)
		}
	}()
	var env Envelope
	if err := dec.Decode(&env); err != nil {
		return nil, fmt.Errorf("cluster: recv: %w", err)
	}
	if err := validateEnvelope(&env); err != nil {
		return nil, err
	}
	return &env, nil
}

// DecodeMessage decodes a single envelope from a standalone gob stream
// (type descriptor + one value), as produced by EncodeMessage or by the
// first send on a fresh connection. It never panics on malformed input.
func DecodeMessage(data []byte) (*Envelope, error) {
	return decodeEnvelope(gob.NewDecoder(bytes.NewReader(data)))
}

// EncodeMessage renders one envelope as a standalone gob stream — the
// inverse of DecodeMessage, used by tests and fuzz seeds.
func EncodeMessage(e *Envelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, fmt.Errorf("cluster: encode %s: %w", e.Kind, err)
	}
	return buf.Bytes(), nil
}

// countingWriter counts bytes as they leave for the network, feeding a
// sent-bytes counter (the upload-volume metric).
type countingWriter struct {
	w io.Writer
	c *metrics.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	if n > 0 {
		cw.c.Add(uint64(n))
	}
	return n, err
}

// conn wraps a net.Conn with its codec state. Every connection starts in
// gob mode (the registration exchange); upgrade switches both directions
// to binaryv2 frames at a message boundary, which is safe because gob
// never reads past the end of a message. recv is safe for a single
// goroutine; send is serialized internally so that heartbeat goroutines,
// broadcasts, and rejoin replies may share one connection.
type conn struct {
	raw net.Conn
	// w is the write side (wrapped in the counting layer when metrics are
	// on), shared by both phases so sent-bytes always counts framed bytes.
	w io.Writer
	// r is the single buffered reader both phases share. This is load-
	// bearing for the upgrade: gob.NewDecoder silently wraps any non-
	// ByteReader in its own bufio.Reader, whose readahead would swallow
	// the first binary frames if the frame parser read from raw directly.
	// Handing the decoder a bufio.Reader up front keeps every buffered
	// byte visible to whichever codec reads next.
	r   *bufio.Reader
	dec *gob.Decoder
	// framed is set by upgrade: all subsequent messages are binaryv2
	// frames.
	framed bool
	// reuseVecs lets recvFrameV2 decode payload vectors into a reusable
	// per-connection scratch slice. Only safe when the consumer never
	// retains a received vector past the next recv — true for the worker
	// (params are consumed within the step), never for the master
	// (gradient ownership transfers to the gather loop).
	reuseVecs bool
	// asm, when set, is the worker's sub-frame assembler (master side
	// only): recvFrameV2 reserves each incoming gradient's span in the
	// step's gather buffer and reads the payload straight into it — the
	// zero-copy reassembly of shard.go.
	asm            *shardAssembler
	hdrScratch     [frameHeaderSizeV2]byte
	payloadScratch []byte // big-endian hosts only: raw payload bytes
	vecScratch     []float64
	recvEnv        Envelope // the envelope every framed recv returns

	sendMu sync.Mutex
	enc    *gob.Encoder
	// sendHdr and sendScratch are sendFrameV2's per-connection buffers,
	// guarded by sendMu: the header under construction, and the whole
	// encoded frame on big-endian hosts.
	sendHdr     [frameHeaderSizeV2]byte
	sendScratch []byte
	// writeTimeout bounds each send so one stalled socket cannot wedge a
	// broadcast (0 = no deadline).
	writeTimeout time.Duration
}

// newConn wraps c. sent, when non-nil, accumulates every byte written to
// the connection (metrics instrumentation); nil skips the counting layer.
func newConn(c net.Conn, writeTimeout time.Duration, sent *metrics.Counter) *conn {
	var w io.Writer = c
	if sent != nil {
		w = &countingWriter{w: c, c: sent}
	}
	r := bufio.NewReader(c)
	return &conn{raw: c, w: w, r: r, enc: gob.NewEncoder(w), dec: gob.NewDecoder(r), writeTimeout: writeTimeout}
}

// upgrade switches the connection to binaryv2 frames for both directions.
// It must be called at a protocol quiet point — after the hello exchange,
// before the connection is visible to broadcasts or readers — on both
// peers of the connection.
func (c *conn) upgrade(reuseVecs bool) {
	c.sendMu.Lock()
	c.framed = true
	c.reuseVecs = reuseVecs
	c.sendMu.Unlock()
}

func (c *conn) send(e *Envelope) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.writeTimeout > 0 {
		if err := c.raw.SetWriteDeadline(time.Now().Add(c.writeTimeout)); err != nil {
			return fmt.Errorf("cluster: send %s: %w", e.Kind, err)
		}
	}
	var err error
	if c.framed {
		err = c.sendFrameV2(e)
	} else {
		err = c.enc.Encode(e)
	}
	if err != nil {
		return fmt.Errorf("cluster: send %s: %w", e.Kind, err)
	}
	if c.writeTimeout > 0 {
		_ = c.raw.SetWriteDeadline(time.Time{})
	}
	return nil
}

func (c *conn) recv() (*Envelope, error) {
	if c.framed {
		return c.recvFrameV2()
	}
	return decodeEnvelope(c.dec)
}

func (c *conn) close() error { return c.raw.Close() }

// clientHello runs the worker side of the registration exchange on a fresh
// connection: send the gob hello proposing binaryv2 with max(1, shards)
// gather lanes (and carrying the last completed step on a rejoin), then
// await the master's ack. The returned ack carries the granted lane count
// and the master's generation, which the caller needs to attach the extra
// lane connections.
func clientHello(c *conn, id, step, shards int) (*Envelope, error) {
	if shards < 1 {
		shards = 1
	}
	if err := c.send(&Envelope{Kind: MsgHello, Worker: id, Step: step, Wire: WireBinary2, Shards: shards}); err != nil {
		return nil, err
	}
	return awaitAck(c, "wire negotiation")
}

// laneHello attaches one extra gather-lane connection to an already
// registered worker: a gob hello tagged with the lane index and the
// master's generation (so a lane from a previous life cannot attach to a
// reborn master), answered by a binaryv2 ack, after which the lane speaks
// sub-frames only.
func laneHello(c *conn, id, lane, gen int) error {
	if err := c.send(&Envelope{Kind: MsgHello, Worker: id, Wire: WireBinary2, Shard: lane, Gen: gen}); err != nil {
		return err
	}
	_, err := awaitAck(c, fmt.Sprintf("lane %d negotiation", lane))
	return err
}

// awaitAck reads the master's gob answer to a hello and switches the
// connection to frames. MsgJobGone surfaces as ErrJobGone; an ack naming
// any other codec is a negotiation error — a worker never falls back.
func awaitAck(c *conn, what string) (*Envelope, error) {
	_ = c.raw.SetReadDeadline(time.Now().Add(wireAckTimeout))
	ack, err := c.recv()
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", what, err)
	}
	_ = c.raw.SetReadDeadline(time.Time{})
	if ack.Kind == MsgJobGone {
		return nil, ErrJobGone
	}
	if ack.Kind != MsgHello || ack.Wire != WireBinary2 {
		return nil, fmt.Errorf("cluster: %s: got %s wire %q", what, ack.Kind, ack.Wire)
	}
	c.upgrade(true)
	return ack, nil
}

// wireAckTimeout bounds the wait for the master's hello ack: hanging on a
// peer that accepted the hello but never answers would be worse than the
// explicit error.
const wireAckTimeout = 5 * time.Second

// dialWithRetry dials addr, retrying for up to timeout — workers typically
// start concurrently with the master.
func dialWithRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for {
		c, err := net.DialTimeout("tcp", addr, 500*time.Millisecond)
		if err == nil {
			return c, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster: dial %s: %w", addr, lastErr)
		}
		time.Sleep(20 * time.Millisecond)
	}
}
