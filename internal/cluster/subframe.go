// The binary wire codec (binaryv2): a versioned, length-prefixed frame
// format for every data-plane message after the gob hello exchange. gob
// re-transmits type metadata, boxes every float64, and allocates per
// message; at 2^16-dim gradients that overhead would dominate the master's
// gather (the paper's per-iteration completion time, Fig. 12). A frame here
// is a fixed 44-byte little-endian header followed by raw IEEE-754 float64
// payload words — no reflection, no per-value framing. On little-endian
// hosts those payload bytes are the vector's own memory (native.go), so a
// payload leaves from and lands in its []float64 without an encode loop.
//
// Two header fields, offset and total, describe where a gradient payload
// lands inside the full gradient vector. That is what lets one step's
// upload split across S parallel lane connections — each lane carries a
// contiguous (offset, len) slice, and the master's shard assembler reads
// every payload straight into the gather buffer at its offset, with no
// reassembly copies (see shard.go). A single-lane worker sends one
// sub-frame per step with offset 0 and total = dim.
//
// Frame layout (all little-endian):
//
//	offset size field
//	0      4    magic "ISGC"
//	4      1    version (2)
//	5      1    message type (1 hello, 2 step, 3 gradient, 4 heartbeat, 5 stop)
//	6      2    reserved (must be zero)
//	8      4    worker id
//	12     4    step
//	16     8    compute start (unix nanoseconds)
//	24     8    compute duration (nanoseconds)
//	32     4    dim — payload length in float64 words (the length prefix)
//	36     4    offset — first gradient element this payload covers
//	40     4    total — full gradient dimension the sub-frame belongs to
//	44     8·dim payload: params (step) or coded gradient (gradient)
//
// The sub-frame geometry is meaningful only on gradient frames: every
// other kind must carry zero offset and total, like the reserved bytes.
// The encoding is canonical: for every envelope a frame can carry there is
// exactly one valid byte representation, and DecodeSubFrame rejects
// anything else (bad magic, version skew, nonzero reserved bytes, payload
// on a payload-free kind, geometry violations, truncated or trailing
// bytes). FuzzDecodeSubFrame hammers the parser with adversarial bytes.
// The hello exchange that switches a connection to frames rides in gob —
// see wire.go — so frames never appear on a connection before both peers
// agreed to them.
package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Binary frame geometry and versioning.
const (
	frameMagic0 = 'I'
	frameMagic1 = 'S'
	frameMagic2 = 'G'
	frameMagic3 = 'C'

	// frameVersion2 is the binary wire version. A decoder only accepts
	// frames of the exact version it speaks: version skew is a
	// negotiation bug, and silently misparsing another layout would be
	// far worse than an eviction.
	frameVersion2     = 2
	frameHeaderSizeV2 = 44

	// maxFrameID bounds worker ids and steps on the wire. They travel as
	// uint32 but land in Go ints; capping at MaxInt32 keeps the conversion
	// safe on every platform.
	maxFrameID = math.MaxInt32
)

// Binary message type codes (header byte 5).
const (
	frameTypeHello     = 1
	frameTypeStep      = 2
	frameTypeGradient  = 3
	frameTypeHeartbeat = 4
	frameTypeStop      = 5
)

// frameTypeOf maps an envelope kind to its wire code (0 = unencodable).
func frameTypeOf(kind string) byte {
	switch kind {
	case MsgHello:
		return frameTypeHello
	case MsgStep:
		return frameTypeStep
	case MsgGradient:
		return frameTypeGradient
	case MsgHeartbeat:
		return frameTypeHeartbeat
	case MsgStop:
		return frameTypeStop
	default:
		return 0
	}
}

// frameKindOf maps a wire code back to the envelope kind ("" = unknown).
func frameKindOf(t byte) string {
	switch t {
	case frameTypeHello:
		return MsgHello
	case frameTypeStep:
		return MsgStep
	case frameTypeGradient:
		return MsgGradient
	case frameTypeHeartbeat:
		return MsgHeartbeat
	case frameTypeStop:
		return MsgStop
	default:
		return ""
	}
}

// framePayload returns the vector a frame of this kind carries. Only the
// hot-path kinds carry one; every other kind must have dim == 0.
func framePayload(e *Envelope) ([]float64, error) {
	switch e.Kind {
	case MsgStep:
		if len(e.Coded) != 0 {
			return nil, fmt.Errorf("cluster: %s frame cannot carry a coded gradient", e.Kind)
		}
		return e.Params, nil
	case MsgGradient:
		if len(e.Params) != 0 {
			return nil, fmt.Errorf("cluster: %s frame cannot carry params", e.Kind)
		}
		return e.Coded, nil
	default:
		if len(e.Params) != 0 || len(e.Coded) != 0 {
			return nil, fmt.Errorf("cluster: %s frame cannot carry a payload", e.Kind)
		}
		return nil, nil
	}
}

// shardSpans splits a dim-length vector into contiguous, near-equal
// (offset, len) spans, one per lane — the first dim%shards spans are one
// element wider, so the widths differ by at most one. More lanes than
// elements leaves the surplus lanes with zero-width spans, which senders
// skip; the split is pure arithmetic, so both peers and the tests derive
// the same geometry without negotiating it.
func shardSpans(dim, shards int) [][2]int {
	if shards < 1 {
		shards = 1
	}
	spans := make([][2]int, shards)
	base, rem := dim/shards, dim%shards
	off := 0
	for s := range spans {
		w := base
		if s < rem {
			w++
		}
		spans[s] = [2]int{off, w}
		off += w
	}
	return spans
}

// putFrameHeader is the encoder's one validation choke point: it refuses
// envelopes the frame format cannot represent faithfully — invalid
// envelopes, negotiation fields (Wire, Shards and Shard ride only in the
// gob hello exchange), out-of-range ids, payloads on payload-free kinds,
// and sub-frame geometry the decoder would refuse (gradient frames need a
// positive Total covering [Offset, Offset+len(Coded)), every other kind
// must have both zero) — then writes e's 44-byte header into h and
// returns the payload vector the frame carries.
func putFrameHeader(h *[frameHeaderSizeV2]byte, e *Envelope) ([]float64, error) {
	if err := validateEnvelope(e); err != nil {
		return nil, err
	}
	if e.Wire != "" {
		return nil, fmt.Errorf("cluster: %s frame cannot carry wire negotiation %q", e.Kind, e.Wire)
	}
	if e.Shards != 0 || e.Shard != 0 {
		return nil, fmt.Errorf("cluster: %s frame cannot carry lane negotiation", e.Kind)
	}
	t := frameTypeOf(e.Kind)
	if t == 0 {
		return nil, fmt.Errorf("cluster: no binary frame type for kind %q", e.Kind)
	}
	if e.Worker > maxFrameID {
		return nil, fmt.Errorf("cluster: worker id %d exceeds frame limit", e.Worker)
	}
	if e.Step > maxFrameID {
		return nil, fmt.Errorf("cluster: step %d exceeds frame limit", e.Step)
	}
	vec, err := framePayload(e)
	if err != nil {
		return nil, err
	}
	if e.Kind == MsgGradient {
		if e.Total < 1 {
			return nil, fmt.Errorf("cluster: gradient sub-frame needs a positive total, got %d", e.Total)
		}
	} else if e.Offset != 0 || e.Total != 0 {
		return nil, fmt.Errorf("cluster: %s frame cannot carry sub-frame geometry (%d, %d)", e.Kind, e.Offset, e.Total)
	}

	le := binary.LittleEndian
	h[0], h[1], h[2], h[3] = frameMagic0, frameMagic1, frameMagic2, frameMagic3
	h[4] = frameVersion2
	h[5] = t
	h[6], h[7] = 0, 0
	le.PutUint32(h[8:], uint32(e.Worker))
	le.PutUint32(h[12:], uint32(e.Step))
	le.PutUint64(h[16:], uint64(e.ComputeStartUnixNano))
	le.PutUint64(h[24:], uint64(e.ComputeDurNanos))
	le.PutUint32(h[32:], uint32(len(vec)))
	le.PutUint32(h[36:], uint32(e.Offset))
	le.PutUint32(h[40:], uint32(e.Total))
	return vec, nil
}

// AppendSubFrame appends the canonical binaryv2 encoding of e to dst and
// returns the extended slice. It refuses every envelope putFrameHeader
// refuses.
func AppendSubFrame(dst []byte, e *Envelope) ([]byte, error) {
	var h [frameHeaderSizeV2]byte
	vec, err := putFrameHeader(&h, e)
	if err != nil {
		return nil, err
	}
	off := len(dst)
	need := frameHeaderSizeV2 + 8*len(vec)
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	copy(dst[off:], h[:])
	encodePayload(dst[off+frameHeaderSizeV2:], vec)
	return dst, nil
}

// EncodeSubFrame renders one envelope as a standalone binaryv2 frame — used
// by tests, fuzz seeds, and the golden vectors.
func EncodeSubFrame(e *Envelope) ([]byte, error) {
	return AppendSubFrame(nil, e)
}

// frameHeader is the parsed fixed header of one binaryv2 frame.
type frameHeader struct {
	kind          string
	worker, step  int
	computeStart  int64
	computeDur    int64
	dim           int
	offset, total int
}

// parseFrameHeaderV2 validates and parses a 44-byte header. Every
// rejection is an error, never a panic — this parser fronts adversarial
// bytes and is hammered by FuzzDecodeSubFrame.
func parseFrameHeaderV2(h []byte) (frameHeader, error) {
	var fh frameHeader
	if len(h) < frameHeaderSizeV2 {
		return fh, fmt.Errorf("cluster: v2 frame header truncated: %d of %d bytes", len(h), frameHeaderSizeV2)
	}
	if h[0] != frameMagic0 || h[1] != frameMagic1 || h[2] != frameMagic2 || h[3] != frameMagic3 {
		return fh, fmt.Errorf("cluster: bad frame magic % x", h[:4])
	}
	if h[4] != frameVersion2 {
		return fh, fmt.Errorf("cluster: unsupported frame version %d (speak %d)", h[4], frameVersion2)
	}
	fh.kind = frameKindOf(h[5])
	if fh.kind == "" {
		return fh, fmt.Errorf("cluster: unknown frame type %d", h[5])
	}
	if h[6] != 0 || h[7] != 0 {
		return fh, fmt.Errorf("cluster: nonzero reserved bytes % x in v2 frame", h[6:8])
	}
	le := binary.LittleEndian
	worker := le.Uint32(h[8:])
	step := le.Uint32(h[12:])
	if worker > maxFrameID || step > maxFrameID {
		return fh, fmt.Errorf("cluster: frame worker=%d step=%d exceed id limit", worker, step)
	}
	fh.worker = int(worker)
	fh.step = int(step)
	fh.computeStart = int64(le.Uint64(h[16:]))
	fh.computeDur = int64(le.Uint64(h[24:]))
	dim := le.Uint32(h[32:])
	if dim > maxVectorLen {
		return fh, fmt.Errorf("cluster: frame dim %d exceeds limit %d", dim, maxVectorLen)
	}
	fh.dim = int(dim)
	offset := le.Uint32(h[36:])
	total := le.Uint32(h[40:])
	if offset > maxVectorLen || total > maxVectorLen {
		return fh, fmt.Errorf("cluster: sub-frame geometry (%d, %d) exceeds limit %d", offset, total, maxVectorLen)
	}
	fh.offset = int(offset)
	fh.total = int(total)
	if fh.kind == MsgGradient {
		if fh.total < 1 {
			return fh, fmt.Errorf("cluster: gradient sub-frame with zero total")
		}
		if fh.offset+fh.dim > fh.total {
			return fh, fmt.Errorf("cluster: sub-frame [%d, %d) exceeds total %d", fh.offset, fh.offset+fh.dim, fh.total)
		}
	} else if fh.offset != 0 || fh.total != 0 {
		return fh, fmt.Errorf("cluster: %s frame carries sub-frame geometry (%d, %d)", fh.kind, fh.offset, fh.total)
	}
	return fh, nil
}

// fillSubFrameEnvelope writes the envelope a parsed header + payload
// describe into e and passes it through the shared validation choke point.
func fillSubFrameEnvelope(e *Envelope, fh frameHeader, vec []float64) error {
	*e = Envelope{
		Kind:                 fh.kind,
		Worker:               fh.worker,
		Step:                 fh.step,
		ComputeStartUnixNano: fh.computeStart,
		ComputeDurNanos:      fh.computeDur,
		Offset:               fh.offset,
		Total:                fh.total,
	}
	switch fh.kind {
	case MsgStep:
		e.Params = vec
	case MsgGradient:
		e.Coded = vec
	default:
		if fh.dim != 0 {
			return fmt.Errorf("cluster: %s frame carries unexpected %d-word payload", fh.kind, fh.dim)
		}
	}
	return validateEnvelope(e)
}

// DecodeSubFrame decodes exactly one standalone binaryv2 frame.
// Truncation, trailing bytes, bad magic, version skew, over-limit dims, and
// geometry violations all error; nothing panics. It is the target of
// FuzzDecodeSubFrame.
func DecodeSubFrame(data []byte) (*Envelope, error) {
	fh, err := parseFrameHeaderV2(data)
	if err != nil {
		return nil, err
	}
	if want := frameHeaderSizeV2 + 8*fh.dim; len(data) != want {
		return nil, fmt.Errorf("cluster: v2 frame length %d, want %d for dim %d", len(data), want, fh.dim)
	}
	var vec []float64
	if fh.dim > 0 {
		vec = make([]float64, fh.dim)
		decodePayload(data[frameHeaderSizeV2:], vec)
	}
	e := new(Envelope)
	if err := fillSubFrameEnvelope(e, fh, vec); err != nil {
		return nil, err
	}
	return e, nil
}

// encodePayload writes vec as 8·len(vec) little-endian payload bytes into
// p: a plain copy of its memory on little-endian hosts.
func encodePayload(p []byte, vec []float64) {
	if nativeLE {
		copy(p, float64Bytes(vec))
		return
	}
	encodePayloadPortable(p, vec)
}

// decodePayload fills vec from 8·len(vec) little-endian payload bytes: a
// plain copy into its memory on little-endian hosts.
func decodePayload(p []byte, vec []float64) {
	if nativeLE {
		copy(float64Bytes(vec), p)
		return
	}
	decodePayloadPortable(p, vec)
}

// encodePayloadPortable is the byte-order-independent encoder: what
// big-endian hosts run, and the oracle the native path is tested against.
func encodePayloadPortable(p []byte, vec []float64) {
	for i, v := range vec {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(v))
	}
}

// decodePayloadPortable is the byte-order-independent decoder, the
// counterpart of encodePayloadPortable.
func decodePayloadPortable(p []byte, vec []float64) {
	for i := range vec {
		vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
}

// sendFrameV2 writes e as one binaryv2 frame. On little-endian hosts that
// is two Writes and no encoding at all: the header, built in the
// per-connection array, then the payload vector's own memory — the caller
// must not mutate the vector until sendFrameV2 returns, and it returns
// only once the kernel holds the bytes. Big-endian hosts encode header
// and payload into a per-connection scratch buffer and write it once.
// Either way the counting writer sees the exact framed byte count.
// Callers hold sendMu.
func (c *conn) sendFrameV2(e *Envelope) error {
	vec, err := putFrameHeader(&c.sendHdr, e)
	if err != nil {
		return err
	}
	if nativeLE {
		if _, err := c.w.Write(c.sendHdr[:]); err != nil || len(vec) == 0 {
			return err
		}
		_, err = c.w.Write(float64Bytes(vec))
		return err
	}
	need := frameHeaderSizeV2 + 8*len(vec)
	if cap(c.sendScratch) < need {
		c.sendScratch = make([]byte, need)
	}
	buf := c.sendScratch[:need]
	copy(buf, c.sendHdr[:])
	encodePayloadPortable(buf[frameHeaderSizeV2:], vec)
	_, err = c.w.Write(buf)
	return err
}

// recvFrameV2 reads one binaryv2 frame from the connection. The header
// lands in a per-connection array, and the payload's destination is
// resolved before a payload byte is read, so the bytes land in their
// final place in one read (little-endian hosts; big-endian ones read into
// a scratch buffer and decode from there):
//   - a gradient, on a connection with a shard assembler (the master),
//     goes straight into the span the assembler reserves in the step's
//     gather buffer. A declined reservation (stale, overlapping, or out
//     of range) drains the payload undecoded and surfaces the envelope
//     with a nil Coded for the reader to count and drop; a read that
//     fails after reserving hands the span back, so a re-upload of the
//     step after a rejoin is not mistaken for an overlap.
//   - a vector on a connection that opted into vector reuse (the worker,
//     where params are consumed within the step and never retained) goes
//     into the per-connection scratch vector.
//   - anything else goes into a fresh vector.
//
// The returned envelope is the connection's own, overwritten by the next
// recv: callers consume it before reading again.
func (c *conn) recvFrameV2() (*Envelope, error) {
	if _, err := io.ReadFull(c.r, c.hdrScratch[:]); err != nil {
		return nil, fmt.Errorf("cluster: recv frame header: %w", err)
	}
	fh, err := parseFrameHeaderV2(c.hdrScratch[:])
	if err != nil {
		return nil, err
	}
	e := &c.recvEnv
	if fh.dim == 0 || (fh.kind != MsgStep && fh.kind != MsgGradient) {
		// No payload, or one the kind cannot carry: the fill refuses the
		// latter before a byte of it is read.
		if err := fillSubFrameEnvelope(e, fh, nil); err != nil {
			return nil, err
		}
		return e, nil
	}
	var vec []float64
	reserved := false
	switch {
	case fh.kind == MsgGradient && c.asm != nil:
		vec = c.asm.reserveFor(fh.worker, fh.step, fh.offset, fh.dim, fh.total)
		if vec == nil {
			if _, err := c.r.Discard(8 * fh.dim); err != nil {
				return nil, fmt.Errorf("cluster: drain declined %s payload (%d words): %w", fh.kind, fh.dim, err)
			}
			// Keep the envelope well-formed (a gradient with geometry but
			// no payload) so the reader can account for it.
			*e = Envelope{
				Kind: MsgGradient, Worker: fh.worker, Step: fh.step,
				ComputeStartUnixNano: fh.computeStart, ComputeDurNanos: fh.computeDur,
				Offset: fh.offset, Total: fh.total,
			}
			return e, nil
		}
		reserved = true
	case c.reuseVecs:
		if cap(c.vecScratch) < fh.dim {
			c.vecScratch = make([]float64, fh.dim)
		}
		vec = c.vecScratch[:fh.dim]
	default:
		vec = make([]float64, fh.dim)
	}
	err = c.readPayload(vec)
	if err != nil {
		err = fmt.Errorf("cluster: recv %s payload (%d words): %w", fh.kind, fh.dim, err)
	} else {
		err = fillSubFrameEnvelope(e, fh, vec)
	}
	if err != nil {
		if reserved {
			c.asm.unreserve(fh.step, vec)
		}
		return nil, err
	}
	return e, nil
}

// readPayload fills vec with the next 8·len(vec) payload bytes: one read
// straight into its memory on little-endian hosts.
func (c *conn) readPayload(vec []float64) error {
	if nativeLE {
		_, err := io.ReadFull(c.r, float64Bytes(vec))
		return err
	}
	nbytes := 8 * len(vec)
	if cap(c.payloadScratch) < nbytes {
		c.payloadScratch = make([]byte, nbytes)
	}
	p := c.payloadScratch[:nbytes]
	if _, err := io.ReadFull(c.r, p); err != nil {
		return err
	}
	decodePayloadPortable(p, vec)
	return nil
}
