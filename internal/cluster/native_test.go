package cluster

import (
	"bufio"
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// payloadSpecials are the float64 classes a byte-level codec could mangle:
// NaNs with distinct sign, quiet/signaling and payload bits, both zeros,
// both infinities, subnormals, and the extremes.
var payloadSpecials = []float64{
	math.Float64frombits(0x7ff8000000000000), // canonical quiet NaN
	math.Float64frombits(0x7ff8000000000001), // quiet NaN with payload
	math.Float64frombits(0x7ff0000000000001), // signaling NaN
	math.Float64frombits(0xfff8dead0000beef), // negative NaN with payload
	math.Float64frombits(0x7fffffffffffffff), // all-ones NaN
	math.Copysign(0, -1),
	0,
	math.Inf(1),
	math.Inf(-1),
	math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), // largest subnormal
	math.MaxFloat64,
	-math.MaxFloat64,
	1,
	-0.5,
}

// payloadVector is a dim-word vector cycling through the specials, with
// random bit patterns mixed in on long vectors.
func payloadVector(dim int, rng *rand.Rand) []float64 {
	v := make([]float64, dim)
	for i := range v {
		if i%3 == 2 {
			v[i] = math.Float64frombits(rng.Uint64())
		} else {
			v[i] = payloadSpecials[i%len(payloadSpecials)]
		}
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d words, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: word %d is %#x, want %#x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestNativePayloadMatchesPortable pins the byte-view codec to the
// portable little-endian loops, bit for bit, on whatever host runs it:
// the payload encoders, the payload decoders, and a whole frame through
// sendFrameV2 and recvFrameV2.
func TestNativePayloadMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dim := range []int{0, 1, 2, 1<<16 + 3} {
		vec := payloadVector(dim, rng)

		native := make([]byte, 8*dim)
		encodePayload(native, vec)
		portable := make([]byte, 8*dim)
		encodePayloadPortable(portable, vec)
		if !bytes.Equal(native, portable) {
			t.Fatalf("dim %d: native encoding differs from the portable one", dim)
		}

		back := make([]float64, dim)
		decodePayload(portable, back)
		sameBits(t, "native decode", back, vec)
		decodePayloadPortable(native, back)
		sameBits(t, "portable decode", back, vec)

		// A whole gradient frame on a connection: the bytes sendFrameV2
		// writes are the header plus the portable payload, and recvFrameV2
		// reads back the same bits.
		e := &Envelope{Kind: MsgGradient, Worker: 5, Step: 3, Coded: vec, Total: dim + 1}
		var wire bytes.Buffer
		if err := (&conn{w: &wire}).sendFrameV2(e); err != nil {
			t.Fatal(err)
		}
		var h [frameHeaderSizeV2]byte
		if _, err := putFrameHeader(&h, e); err != nil {
			t.Fatal(err)
		}
		if want := append(h[:], portable...); !bytes.Equal(wire.Bytes(), want) {
			t.Fatalf("dim %d: sendFrameV2 wrote %d bytes that differ from header + portable payload", dim, wire.Len())
		}
		appended, err := AppendSubFrame(nil, e)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(appended, wire.Bytes()) {
			t.Fatalf("dim %d: AppendSubFrame and sendFrameV2 disagree", dim)
		}
		rc := &conn{r: bufio.NewReader(&wire), framed: true}
		got, err := rc.recvFrameV2()
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "recvFrameV2", got.Coded, vec)
	}
}
