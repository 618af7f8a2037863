package cluster

import (
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// FuzzDecodeMessage hammers the wire-decode choke point with adversarial
// bytes: whatever arrives on a socket, decoding must return an envelope or
// an error — never panic the master. Seeds cover every message kind plus
// truncations and flipped bytes of valid encodings.
func FuzzDecodeMessage(f *testing.F) {
	seeds := []*Envelope{
		{Kind: MsgHello, Worker: 3},
		{Kind: MsgHello, Worker: 2, Step: 17},
		{Kind: MsgStep, Step: 5, Params: []float64{1.5, -2.25, 0}},
		{Kind: MsgGradient, Worker: 1, Step: 9, Coded: []float64{0.25, 3}},
		{Kind: MsgGradient, Worker: 4, Step: 2, Coded: []float64{1},
			ComputeStartUnixNano: 1_700_000_000_000_000_000, ComputeDurNanos: 12_345_678},
		{Kind: MsgHeartbeat, Worker: 0},
		{Kind: MsgStop},
	}
	for _, e := range seeds {
		data, err := EncodeMessage(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		// Truncations exercise mid-stream EOF handling.
		f.Add(data[:len(data)/2])
		f.Add(data[:1])
		// A flipped byte in the gob type descriptor or payload.
		corrupt := append([]byte(nil), data...)
		corrupt[len(corrupt)/2] ^= 0xff
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeMessage(data)
		if err != nil {
			return
		}
		// Whatever decodes successfully must satisfy the structural
		// invariants the runtime relies on downstream.
		switch e.Kind {
		case MsgHello, MsgStep, MsgGradient, MsgHeartbeat, MsgStop:
		default:
			t.Fatalf("decoded envelope with unvalidated kind %q", e.Kind)
		}
		if e.Worker < 0 || e.Step < 0 {
			t.Fatalf("decoded envelope with negative ids: %+v", e)
		}
		if len(e.Params) > maxVectorLen || len(e.Coded) > maxVectorLen {
			t.Fatalf("decoded envelope exceeding vector cap: params=%d coded=%d", len(e.Params), len(e.Coded))
		}
		if e.ComputeStartUnixNano < 0 || e.ComputeDurNanos < 0 {
			t.Fatalf("decoded envelope with negative compute timing: %+v", e)
		}
	})
}

// FuzzDecodeSubFrame is the binary counterpart of FuzzDecodeMessage: the
// frame parser fronts adversarial bytes on every connection after the
// hello exchange, so whatever arrives must decode to a valid envelope or
// an error — never a panic, and never an envelope violating the
// structural invariants. The corpus is seeded with the golden vectors plus
// targeted corruptions of each rejection path (truncation, version skew in
// both directions — binaryv1's version byte included — dim, offset and
// total overflow, zero-total gradients), and the encoding is canonical:
// whatever decodes must re-encode to the exact input bytes, sub-frame
// geometry included. The payload must also decode to the same bits as
// the portable little-endian loop, whatever the host's byte order.
func FuzzDecodeSubFrame(f *testing.F) {
	for _, e := range goldenSubFrameEnvelopes() {
		data, err := EncodeSubFrame(e)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(append(append([]byte(nil), data...), 0))
		corrupt := append([]byte(nil), data...)
		corrupt[len(corrupt)/3] ^= 0xff
		f.Add(corrupt)
	}
	grad, err := EncodeSubFrame(&Envelope{Kind: MsgGradient, Worker: 1, Step: 2,
		Coded: []float64{1}, Offset: 4, Total: 8})
	if err != nil {
		f.Fatal(err)
	}
	skewDown := append([]byte(nil), grad...)
	skewDown[4] = 1 // binaryv1's version byte
	f.Add(skewDown)
	skewUp := append([]byte(nil), grad...)
	skewUp[4] = frameVersion2 + 1
	f.Add(skewUp)
	dimOverflow := append([]byte(nil), grad...)
	le := binary.LittleEndian
	le.PutUint32(dimOverflow[32:], maxVectorLen+1)
	f.Add(dimOverflow)
	offOverflow := append([]byte(nil), grad...)
	le.PutUint32(offOverflow[36:], maxVectorLen+1)
	f.Add(offOverflow)
	zeroTotal := append([]byte(nil), grad...)
	le.PutUint32(zeroTotal[40:], 0)
	f.Add(zeroTotal)
	f.Add([]byte{})
	f.Add([]byte("ISGC"))

	f.Fuzz(func(t *testing.T, data []byte) {
		e, err := DecodeSubFrame(data)
		if err != nil {
			return
		}
		if verr := validateEnvelope(e); verr != nil {
			t.Fatalf("decoded envelope fails validation: %v (%+v)", verr, e)
		}
		if e.Wire != "" || e.Shards != 0 || e.Shard != 0 {
			t.Fatalf("v2 frame produced negotiation fields: %+v", e)
		}
		// The native byte-view decode must agree bit for bit with the
		// portable loop, NaN payloads included.
		got := append(e.Params, e.Coded...)
		want := make([]float64, len(got))
		decodePayloadPortable(data[frameHeaderSizeV2:], want)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("payload word %d: native %#x, portable %#x", i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
		}
		re, err := AppendSubFrame(nil, e)
		if err != nil {
			t.Fatalf("re-encode of decoded envelope failed: %v (%+v)", err, e)
		}
		if len(re) != len(data) {
			t.Fatalf("re-encode length %d != input length %d", len(re), len(data))
		}
		for i := range re {
			if re[i] != data[i] {
				t.Fatalf("re-encode differs from input at byte %d", i)
			}
		}
	})
}

func TestDecodeMessageRoundTrip(t *testing.T) {
	want := &Envelope{Kind: MsgGradient, Worker: 2, Step: 11, Coded: []float64{1, 2, 3},
		ComputeStartUnixNano: 1_700_000_000_000_000_000, ComputeDurNanos: 42_000_000}
	data, err := EncodeMessage(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != want.Kind || got.Worker != want.Worker || got.Step != want.Step || len(got.Coded) != 3 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.ComputeStartUnixNano != want.ComputeStartUnixNano || got.ComputeDurNanos != want.ComputeDurNanos {
		t.Fatalf("compute timing lost in round trip: %+v", got)
	}
}

func TestDecodeMessageRejectsMalformed(t *testing.T) {
	cases := map[string]*Envelope{
		"unknown kind":              {Kind: "pwn"},
		"negative worker":           {Kind: MsgGradient, Worker: -2},
		"negative step":             {Kind: MsgStep, Step: -1},
		"negative compute start":    {Kind: MsgGradient, Worker: 1, ComputeStartUnixNano: -5},
		"negative compute duration": {Kind: MsgGradient, Worker: 1, ComputeDurNanos: -1},
	}
	for name, e := range cases {
		data, err := EncodeMessage(e)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if _, err := DecodeMessage(data); err == nil {
			t.Errorf("%s: DecodeMessage accepted %+v", name, e)
		}
	}
	if _, err := DecodeMessage(nil); err == nil {
		t.Error("DecodeMessage accepted empty input")
	}
	if _, err := DecodeMessage([]byte("garbage that is not gob")); err == nil {
		t.Error("DecodeMessage accepted garbage")
	}
}

// TestRecvRejectsUnknownKind pins that the validation applies on the live
// connection path, not just the standalone DecodeMessage helper.
func TestRecvRejectsUnknownKind(t *testing.T) {
	a, b := pipePair()
	defer a.close()
	defer b.close()
	go func() {
		// send bypasses validation (it trusts our own code); the receiver
		// must not.
		_ = a.send(&Envelope{Kind: "bogus"})
	}()
	if _, err := b.recv(); err == nil || !strings.Contains(err.Error(), "unknown message kind") {
		t.Fatalf("recv must reject unknown kinds, got err=%v", err)
	}
}
