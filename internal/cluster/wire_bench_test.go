package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/model"
)

// benchDim is the gradient dimension the codec benchmarks use: 2^16
// float64s (512 KiB of payload), the scale at which the paper's ResNet-18
// stand-ins make serialization a first-order cost in the gather.
const benchDim = 1 << 16

func benchGradient() *Envelope {
	coded := make([]float64, benchDim)
	for i := range coded {
		coded[i] = float64(i) * 0.125
	}
	return &Envelope{Kind: MsgGradient, Worker: 3, Step: 7, Coded: coded, Total: benchDim,
		ComputeStartUnixNano: 1_700_000_000_000_000_000, ComputeDurNanos: 5_000_000}
}

// BenchmarkWireCodec measures the data-plane codec on the hot-path
// message — a 2^16-dim coded gradient as one whole-vector binaryv2
// sub-frame, what a single-lane worker sends — in the steady state of a
// long-lived connection: a reused encode buffer and the receiver's
// reusable vector scratch.
func BenchmarkWireCodec(b *testing.B) {
	e := benchGradient()

	b.Run("binary/encode", func(b *testing.B) {
		buf := make([]byte, 0, frameHeaderSizeV2+8*benchDim)
		b.ReportAllocs()
		b.ResetTimer()
		var err error
		for i := 0; i < b.N; i++ {
			buf, err = AppendSubFrame(buf[:0], e)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(len(buf)))
	})

	b.Run("binary/roundtrip", func(b *testing.B) {
		frame, err := EncodeSubFrame(e)
		if err != nil {
			b.Fatal(err)
		}
		rd := bytes.NewReader(frame)
		// A receive-side conn as the worker runs it after the upgrade:
		// shared bufio reader, reusable scratch, vector reuse on.
		c := &conn{r: bufio.NewReader(rd), framed: true, reuseVecs: true}
		sendBuf := make([]byte, 0, len(frame))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sendBuf, err = AppendSubFrame(sendBuf[:0], e)
			if err != nil {
				b.Fatal(err)
			}
			rd.Reset(sendBuf)
			c.r.Reset(rd)
			got, err := c.recvFrameV2()
			if err != nil {
				b.Fatal(err)
			}
			if len(got.Coded) != benchDim {
				b.Fatal("bad decode")
			}
		}
	})
}

// subFrameEnvelopes splits the benchmark gradient into per-lane sub-frame
// envelopes the way the worker's sharded upload does.
func subFrameEnvelopes(e *Envelope, shards int) []*Envelope {
	spans := shardSpans(len(e.Coded), shards)
	subs := make([]*Envelope, 0, len(spans))
	for _, sp := range spans {
		if sp[1] == 0 {
			continue
		}
		sub := *e
		sub.Offset, sub.Total = sp[0], len(e.Coded)
		sub.Coded = e.Coded[sp[0] : sp[0]+sp[1]]
		subs = append(subs, &sub)
	}
	return subs
}

// BenchmarkSubFrameSend measures the binaryv2 lane-send path: one full
// 2^16-dim gradient sent as S sub-frames through sendFrameV2. Total
// payload bytes are constant across S, so ns/op isolates the per-lane
// framing overhead the sharded gather pays for its parallelism.
func BenchmarkSubFrameSend(b *testing.B) {
	e := benchGradient()
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			subs := subFrameEnvelopes(e, shards)
			c := &conn{w: io.Discard}
			b.ReportAllocs()
			b.SetBytes(int64(len(subs)*frameHeaderSizeV2 + 8*benchDim))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, sub := range subs {
					if err := c.sendFrameV2(sub); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestSubFrameSendSteadyStateAllocs pins the send path's allocation
// contract: sendFrameV2 builds the header in a per-connection array and
// writes the payload from the vector's own memory (or, on big-endian
// hosts, encodes into a per-connection scratch buffer grown once), so a
// steady-state sharded upload allocates nothing per step.
func TestSubFrameSendSteadyStateAllocs(t *testing.T) {
	subs := subFrameEnvelopes(benchGradient(), 4)
	c := &conn{w: io.Discard}
	send := func() {
		for _, sub := range subs {
			if err := c.sendFrameV2(sub); err != nil {
				t.Fatal(err)
			}
		}
	}
	send() // warm the per-connection buffers
	if avg := testing.AllocsPerRun(50, send); avg > 1 {
		t.Errorf("sharded upload allocates %.1f objects/step in steady state, want 0", avg)
	}
}

// TestGatherRecvSteadyStateAllocs pins the master's receive path: in the
// steady state, reading a gradient into the span its assembler reserved,
// committing it and releasing the gather buffer back allocates nothing —
// the payload lands in a recycled buffer and the envelope is the
// connection's own.
func TestGatherRecvSteadyStateAllocs(t *testing.T) {
	frame, err := EncodeSubFrame(benchGradient())
	if err != nil {
		t.Fatal(err)
	}
	rejects := 0
	asm := newTestAssembler(3, &rejects)
	rd := bytes.NewReader(frame)
	c := &conn{r: bufio.NewReader(rd), framed: true, asm: asm}
	gather := func() {
		rd.Reset(frame)
		c.r.Reset(rd)
		e, err := c.recvFrameV2()
		if err != nil {
			t.Fatal(err)
		}
		vec, done := asm.commit(e)
		if !done {
			t.Fatal("whole-vector sub-frame did not complete its step")
		}
		asm.release(vec)
	}
	gather() // the first step allocates the gather buffer
	if avg := testing.AllocsPerRun(50, gather); avg != 0 {
		t.Errorf("steady-state gradient receive allocates %.1f objects, want 0", avg)
	}
	if rejects != 0 {
		t.Fatalf("steady-state receive counted %d rejects", rejects)
	}
}

// BenchmarkWorkerCompute measures the worker's per-step compute stage on
// a real dim≈2^16 MLP with c=4 partitions: the legacy allocating path
// (Grad per partition, sequential, fresh buffers) versus the pooled path
// computeStep now runs (GradInto into reusable buffers, partitions
// concurrent on the compute pool, SumEncoder buffer reuse).
func BenchmarkWorkerCompute(b *testing.B) {
	m := model.MLP{Features: 128, Hidden: 500, Classes: 4}
	params := m.InitParams(1)
	const c = 4
	rng := rand.New(rand.NewSource(2))
	batches := make([][]dataset.Sample, c)
	for j := range batches {
		batches[j] = make([]dataset.Sample, 16)
		for i := range batches[j] {
			x := make([]float64, m.Features)
			for k := range x {
				x[k] = rng.NormFloat64()
			}
			batches[j][i] = dataset.Sample{X: x, Y: float64(rng.Intn(m.Classes))}
		}
	}

	b.Run("legacy-sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			local := make([][]float64, c)
			for j := range batches {
				local[j] = m.Grad(params, batches[j])
			}
			out := make([]float64, m.Dim())
			for _, g := range local {
				for k, x := range g {
					out[k] += x
				}
			}
		}
	})

	b.Run("pooled-concurrent", func(b *testing.B) {
		pool := model.NewParallelGrad(0)
		defer pool.Close()
		local := make([][]float64, c)
		for j := range local {
			local[j] = make([]float64, m.Dim())
		}
		tasks := make([]func(), c)
		for j := range tasks {
			j := j
			tasks[j] = func() { m.GradInto(local[j], params, batches[j]) }
		}
		encode := SumEncoder()
		pool.Run(tasks...) // warm the scratch pool
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pool.Run(tasks...)
			if _, err := encode(local); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchModel is a trivially cheap Model with a large parameter vector: the
// gather benchmark must measure the wire, not softmax arithmetic, so loss
// and gradient are O(dim) copies with no math worth profiling.
type benchModel struct{ dim int }

func (m benchModel) Dim() int { return m.dim }

func (m benchModel) InitParams(seed int64) []float64 { return make([]float64, m.dim) }

func (m benchModel) Loss(params []float64, batch []dataset.Sample) float64 { return 1 }

func (m benchModel) Grad(params []float64, batch []dataset.Sample) []float64 {
	g := make([]float64, m.dim)
	m.GradInto(g, params, batch)
	return g
}

func (m benchModel) GradInto(g, params []float64, batch []dataset.Sample) {
	for i := range g {
		g[i] = 1e-6
	}
}

func (m benchModel) String() string { return fmt.Sprintf("bench(dim=%d)", m.dim) }

// BenchmarkGatherLatency is the end-to-end number behind the codec: one
// full training step — params broadcast to 4 workers, 4 coded-gradient
// uploads, decode, update — over real loopback TCP with a 2^16-dim
// parameter vector. b.N steps run inside one cluster so connection setup
// and negotiation are amortized away.
func BenchmarkGatherLatency(b *testing.B) {
	st, err := engine.NewSyncSGD(4)
	if err != nil {
		b.Fatal(err)
	}
	mdl := benchModel{dim: benchDim}
	data, _, err := dataset.SyntheticLinear(64, 2, 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	master, err := NewMaster(MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.1, W: 4, MaxSteps: b.N, Seed: 42,
		AcceptTimeout: 10 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := data.Partition(4)
	if err != nil {
		b.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			pids := st.Partitions(i)
			loaders := make([]*dataset.Loader, len(pids))
			for j, d := range pids {
				var err error
				loaders[j], err = dataset.NewLoader(parts[d], 16, 42)
				if err != nil {
					b.Error(err)
					return
				}
			}
			wk, err := NewWorker(WorkerConfig{
				Addr: master.Addr(), ID: i, Partitions: pids, Loaders: loaders,
				Model: mdl, Encode: SumEncoder(),
			})
			if err != nil {
				b.Error(err)
				return
			}
			_, _ = wk.Run()
		}()
	}
	b.ResetTimer()
	if _, err := master.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	wg.Wait()
}
