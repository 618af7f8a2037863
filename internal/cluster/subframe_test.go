package cluster

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire fixtures in testdata/")

// goldenPath returns the fixture file for one named frame.
func goldenPath(name string) string {
	return filepath.Join("testdata", name+".hex")
}

// readGolden loads and decodes a hex fixture (whitespace is ignored, so the
// files can be wrapped for readability).
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(goldenPath(name))
	if err != nil {
		t.Fatalf("read fixture (run with -update to generate): %v", err)
	}
	data, err := hex.DecodeString(strings.Join(strings.Fields(string(raw)), ""))
	if err != nil {
		t.Fatalf("fixture %s is not hex: %v", name, err)
	}
	return data
}

// writeGolden renders frame bytes as wrapped hex.
func writeGolden(t *testing.T, name string, data []byte) {
	t.Helper()
	h := hex.EncodeToString(data)
	var b strings.Builder
	for i := 0; i < len(h); i += 64 {
		end := i + 64
		if end > len(h) {
			end = len(h)
		}
		b.WriteString(h[i:end])
		b.WriteByte('\n')
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath(name), []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// goldenSubFrameEnvelopes are the committed binaryv2 wire fixtures: a
// mid-vector gradient sub-frame (the format's reason to exist), a whole-
// vector gradient (offset 0, total = dim — what a single-lane worker
// sends), and the geometry-free kinds. They pin the byte layout so an
// accidental encoding change breaks loudly instead of silently splitting
// mixed-version fleets.
func goldenSubFrameEnvelopes() map[string]*Envelope {
	return map[string]*Envelope{
		"subframe-gradient": {Kind: MsgGradient, Worker: 2, Step: 9,
			Coded:                []float64{0.25, -3, 1e-300, math.Inf(1)},
			ComputeStartUnixNano: 1_700_000_000_000_000_000, ComputeDurNanos: 12_345_678,
			Offset: 3, Total: 16},
		"subframe-gradient-whole": {Kind: MsgGradient, Worker: 1, Step: 4,
			Coded: []float64{1, -0.5}, Total: 2},
		"subframe-step":      {Kind: MsgStep, Step: 5, Params: []float64{0, 1, -2.5, 0.5, math.Pi}},
		"subframe-heartbeat": {Kind: MsgHeartbeat, Worker: 1},
	}
}

// TestGoldenSubFrames pins the binaryv2 encoding to the committed fixtures
// and proves DecodeSubFrame inverts EncodeSubFrame on them.
func TestGoldenSubFrames(t *testing.T) {
	for name, e := range goldenSubFrameEnvelopes() {
		name, e := name, e
		t.Run(name, func(t *testing.T) {
			enc, err := EncodeSubFrame(e)
			if err != nil {
				t.Fatal(err)
			}
			if *updateGolden {
				writeGolden(t, name, enc)
			}
			want := readGolden(t, name)
			if !bytes.Equal(enc, want) {
				t.Fatalf("EncodeSubFrame drifted from committed fixture:\n got %x\nwant %x", enc, want)
			}
			got, err := DecodeSubFrame(want)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, e) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, e)
			}
		})
	}
}

// TestGoldenSubFrameHeaderBytes spells the 44-byte v2 header out field by
// field — the subframe.go frame diagram asserted byte for byte, including
// the sub-frame geometry: offset at [36, 40) and total at [40, 44).
func TestGoldenSubFrameHeaderBytes(t *testing.T) {
	data := readGolden(t, "subframe-gradient")
	if len(data) < frameHeaderSizeV2 {
		t.Fatalf("fixture shorter than a v2 header: %d bytes", len(data))
	}
	le := binary.LittleEndian
	if string(data[:4]) != "ISGC" {
		t.Errorf("magic = %q", data[:4])
	}
	if data[4] != frameVersion2 {
		t.Errorf("version = %d", data[4])
	}
	if data[5] != frameTypeGradient {
		t.Errorf("type = %d", data[5])
	}
	if data[6] != 0 || data[7] != 0 {
		t.Errorf("reserved = % x", data[6:8])
	}
	if got := le.Uint32(data[8:]); got != 2 {
		t.Errorf("worker = %d", got)
	}
	if got := le.Uint32(data[12:]); got != 9 {
		t.Errorf("step = %d", got)
	}
	if got := int64(le.Uint64(data[16:])); got != 1_700_000_000_000_000_000 {
		t.Errorf("compute start = %d", got)
	}
	if got := int64(le.Uint64(data[24:])); got != 12_345_678 {
		t.Errorf("compute duration = %d", got)
	}
	if got := le.Uint32(data[32:]); got != 4 {
		t.Errorf("dim = %d", got)
	}
	if got := le.Uint32(data[36:]); got != 3 {
		t.Errorf("offset = %d", got)
	}
	if got := le.Uint32(data[40:]); got != 16 {
		t.Errorf("total = %d", got)
	}
	if want := frameHeaderSizeV2 + 8*4; len(data) != want {
		t.Errorf("frame length = %d, want %d", len(data), want)
	}
	if got := math.Float64frombits(le.Uint64(data[frameHeaderSizeV2:])); got != 0.25 {
		t.Errorf("payload[0] = %v", got)
	}
}

// TestAppendSubFrameRejections: every envelope the v2 format cannot
// represent — or whose geometry the decoder would refuse — must be refused
// at encode time, keeping the encoding canonical.
func TestAppendSubFrameRejections(t *testing.T) {
	cases := map[string]*Envelope{
		"unknown kind":        {Kind: "pwn"},
		"negotiation field":   {Kind: MsgHello, Worker: 1, Wire: WireBinary2},
		"lane count field":    {Kind: MsgHello, Worker: 1, Shards: 2},
		"lane index field":    {Kind: MsgHello, Worker: 1, Shard: 1},
		"worker over limit":   {Kind: MsgHeartbeat, Worker: maxFrameID + 1},
		"gradient zero total": {Kind: MsgGradient, Worker: 1, Coded: []float64{1}},
		"geometry on hello":   {Kind: MsgHello, Worker: 1, Total: 4},
		"geometry on step":    {Kind: MsgStep, Params: []float64{1}, Total: 1},
		"offset without total": {Kind: MsgGradient, Worker: 1, Offset: 2,
			Coded: []float64{1}},
		"span exceeds total": {Kind: MsgGradient, Worker: 1, Offset: 3, Total: 4,
			Coded: []float64{1, 1}},
		"step over limit":       {Kind: MsgStep, Step: maxFrameID + 1},
		"payload on hello":      {Kind: MsgHello, Params: []float64{1}},
		"payload on heartbeat":  {Kind: MsgHeartbeat, Coded: []float64{1}},
		"params on gradient":    {Kind: MsgGradient, Worker: 1, Params: []float64{1}, Total: 1},
		"coded on step":         {Kind: MsgStep, Coded: []float64{1}},
		"negative worker":       {Kind: MsgGradient, Worker: -1, Coded: []float64{1}, Total: 1},
		"negative compute time": {Kind: MsgGradient, Worker: 1, ComputeDurNanos: -1, Coded: []float64{1}, Total: 1},
	}
	for name, e := range cases {
		if _, err := AppendSubFrame(nil, e); err == nil {
			t.Errorf("%s: AppendSubFrame accepted %+v", name, e)
		}
	}
}

// TestDecodeSubFrameRejections walks every rejection path of the v2 parser
// with targeted corruptions of a valid frame.
func TestDecodeSubFrameRejections(t *testing.T) {
	valid, err := EncodeSubFrame(goldenSubFrameEnvelopes()["subframe-gradient"])
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(f func(d []byte)) []byte {
		d := append([]byte(nil), valid...)
		f(d)
		return d
	}
	le := binary.LittleEndian
	cases := map[string][]byte{
		"empty":             nil,
		"truncated header":  valid[:20],
		"truncated payload": valid[:len(valid)-1],
		"trailing byte":     append(append([]byte(nil), valid...), 0),
		"bad magic":         mutate(func(d []byte) { d[0] ^= 0xff }),
		"v1 version":        mutate(func(d []byte) { d[4] = 1 }),
		"future version":    mutate(func(d []byte) { d[4] = frameVersion2 + 1 }),
		"unknown type":      mutate(func(d []byte) { d[5] = 99 }),
		"nonzero reserved":  mutate(func(d []byte) { d[6] = 1 }),
		"dim overflow":      mutate(func(d []byte) { le.PutUint32(d[32:], maxVectorLen+1) }),
		"offset overflow":   mutate(func(d []byte) { le.PutUint32(d[36:], maxVectorLen+1) }),
		"zero total":        mutate(func(d []byte) { le.PutUint32(d[40:], 0) }),
		// offset 3 + dim 4 lands at 7, past a shrunken total of 5.
		"span exceeds total": mutate(func(d []byte) { le.PutUint32(d[40:], 5) }),
		"worker over limit":  mutate(func(d []byte) { le.PutUint32(d[8:], maxFrameID+1) }),
		// A one-word payload on a payload-free kind, consistent in length.
		"payload on heartbeat": func() []byte {
			hb, err := EncodeSubFrame(goldenSubFrameEnvelopes()["subframe-heartbeat"])
			if err != nil {
				t.Fatal(err)
			}
			le.PutUint32(hb[32:], 1)
			return append(hb, make([]byte, 8)...)
		}(),
	}
	for name, data := range cases {
		if e, err := DecodeSubFrame(data); err == nil {
			t.Errorf("%s: DecodeSubFrame accepted the corruption: %+v", name, e)
		}
	}

	step, err := EncodeSubFrame(goldenSubFrameEnvelopes()["subframe-step"])
	if err != nil {
		t.Fatal(err)
	}
	step[36] = 1 // offset = 1 on a step frame
	if e, err := DecodeSubFrame(step); err == nil {
		t.Errorf("geometry on step frame: DecodeSubFrame accepted %+v", e)
	}
}
