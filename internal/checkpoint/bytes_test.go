package checkpoint_test

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"isgc/internal/checkpoint"
	"isgc/internal/controlplane"
)

// marshalEnvelope is the old Save path, kept as the oracle: marshal the
// envelope around the marshalled payload raw as a json.RawMessage.
func marshalEnvelope(t *testing.T, step int, savedAtUnixNano int64, crc uint32, raw []byte) []byte {
	t.Helper()
	data, err := json.Marshal(checkpoint.Envelope{
		Version:         checkpoint.Version,
		Step:            step,
		SavedAtUnixNano: savedAtUnixNano,
		CRC32:           crc,
		Payload:         raw,
	})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// bytePayloads are the payloads every Store user saves: a 2^18-dim run
// State, a State whose strings need HTML and U+2028 escapes, a
// WorkerState, and the control plane's PlaneState.
func bytePayloads(t *testing.T) map[string]any {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	params := make([]float64, 1<<18)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	params[0], params[1] = math.Copysign(0, -1), math.NaN()
	var plane controlplane.PlaneState
	if err := json.Unmarshal([]byte(`{"version":1,"seq":7,"jobs":[
		{"id":"job-001","state":"running","n":4,"next_step":12,"submitted_unix_nano":-5},
		{"id":"job-<2>","state":"failed","error":"a & b \u2028 <c>","finished_unix_nano":99}]}`), &plane); err != nil {
		t.Fatal(err)
	}
	return map[string]any{
		"state": &checkpoint.State{
			Version: 1, RunID: "run-1", Scheme: "IS-SGD", N: 8, C: 1, Seed: 7, Step: 40,
			Params:   checkpoint.Float64sToBytes(params),
			Velocity: checkpoint.Float64sToBytes(params[:3]), LastLoss: 0.125,
			DecoderSeed: 7, DecoderDraws: 1 << 40, EventCursor: 3, RecordCursor: 40,
		},
		"escapes": &checkpoint.State{RunID: "<run> & \u2028\u2029 \x00 é \xff", Params: []byte{}},
		"worker":  &checkpoint.WorkerState{Version: 1, ID: 3, Steps: 99, DelaySeed: -4, FaultDraws: 12},
		"plane":   &plane,
	}
}

// TestSaveBytesMatchMarshalledEnvelope: the files Save writes hold exactly
// the bytes json.Marshal(envelope{…}) gave before Save wrote the envelope
// by hand, and the hand-written head matches the marshalled one at the
// edges of every field.
func TestSaveBytesMatchMarshalledEnvelope(t *testing.T) {
	raws := map[string][]byte{}
	for name, payload := range bytePayloads(t) {
		raw, err := json.Marshal(payload)
		if err != nil {
			t.Fatal(err)
		}
		raws[name] = raw
		for _, step := range []int{0, 99999999} {
			s, err := checkpoint.NewStore(t.TempDir(), 0)
			if err != nil {
				t.Fatal(err)
			}
			info, err := s.Save(step, payload)
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(s.Dir(), info.File))
			if err != nil {
				t.Fatal(err)
			}
			want := marshalEnvelope(t, step, info.SavedAt.UnixNano(), crc32.ChecksumIEEE(raw), raw)
			if !bytes.Equal(got, want) {
				t.Fatalf("%s step %d: file differs from json.Marshal(envelope) (%d vs %d bytes)", name, step, len(got), len(want))
			}
			if info.Size != int64(len(got)) {
				t.Fatalf("%s step %d: Info.Size %d, file %d bytes", name, step, info.Size, len(got))
			}
		}
	}
	for name, raw := range raws {
		for _, step := range []int{0, 99999999} {
			for _, crc := range []uint32{0, math.MaxUint32} {
				for _, savedAt := range []int64{math.MinInt64, -1, 0, 1760752800123456789} {
					got := append(checkpoint.AppendEnvelopeHead(nil, step, savedAt, crc), raw...)
					got = append(got, '}')
					if want := marshalEnvelope(t, step, savedAt, crc, raw); !bytes.Equal(got, want) {
						t.Fatalf("%s step %d crc %d saved_at %d:\n got %.120s\nwant %.120s", name, step, crc, savedAt, got, want)
					}
				}
			}
		}
	}
}
