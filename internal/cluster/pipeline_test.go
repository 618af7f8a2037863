package cluster

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/events"
	"isgc/internal/isgc"
	"isgc/internal/metrics"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

// runShapedCluster runs one CR(4,2) IS-GC cluster with arbitrary tweaks to
// the master and per-worker configs, returning the result and the master's
// metrics for wire/shard assertions. With no delays and W = 4 the full
// fleet arrives every step, so two runs differing only in transport or
// scheduling knobs must produce bit-identical records and parameters.
func runShapedCluster(t *testing.T, shapeMaster func(*MasterConfig), shapeWorker func(i int, c *WorkerConfig)) (*engine.Result, *MasterMetrics) {
	t.Helper()
	p, err := placement.CR(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	st, err := engine.NewISGC(isgc.New(p, 7))
	if err != nil {
		t.Fatal(err)
	}
	return runStrategyCluster(t, st, shapeMaster, shapeWorker)
}

// runStrategyCluster is runShapedCluster with the scheme under the
// caller's control (the staleness fold test needs IS-SGD's disjoint
// partitions so a late gradient is always foldable).
func runStrategyCluster(t *testing.T, st engine.Strategy, shapeMaster func(*MasterConfig), shapeWorker func(i int, c *WorkerConfig)) (*engine.Result, *MasterMetrics) {
	t.Helper()
	mdl := model.SoftmaxRegression{Features: 6, Classes: 3}
	data := testData(t)

	reg := metrics.NewRegistry()
	mm := NewMasterMetrics(reg)
	mcfg := MasterConfig{
		Addr: "127.0.0.1:0", Strategy: st, Model: mdl, Data: data,
		LearningRate: 0.3, W: 4, MaxSteps: 8, Seed: 42,
		AcceptTimeout: 10 * time.Second, Metrics: mm,
	}
	if shapeMaster != nil {
		shapeMaster(&mcfg)
	}
	master, err := NewMaster(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := data.Partition(4)
	if err != nil {
		t.Fatal(err)
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
				loaders[j], err = dataset.NewLoader(parts[d], 16, 42+int64(d)*7919)
				if err != nil {
					t.Error(err)
					return
				}
			}
			wcfg := WorkerConfig{
				Addr: master.Addr(), ID: i, Partitions: pids, Loaders: loaders,
				Model: mdl, Encode: SumEncoder(),
				DelaySeed: int64(i) + 1,
			}
			if shapeWorker != nil {
				shapeWorker(i, &wcfg)
			}
			wk, err := NewWorker(wcfg)
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := wk.Run(); err != nil {
				t.Error(err)
			}
		}()
	}
	res, err := master.Run()
	if err != nil {
		t.Fatalf("master: %v", err)
	}
	wg.Wait()
	return res, mm
}

// normalizeRun strips wall-clock noise so two runs can be compared exactly.
func normalizeRun(res *engine.Result) {
	for j := range res.Run.Records {
		res.Run.Records[j].Elapsed = 0
	}
}

// TestPipelinedEquivalentToSync is the tentpole's determinism pin: with
// Staleness = 0 the pipelined loop changes only the send schedule — it must
// produce the exact records and final parameters of the synchronous loop,
// bit for bit.
func TestPipelinedEquivalentToSync(t *testing.T) {
	sync0, _ := runShapedCluster(t, nil, nil)
	piped, _ := runShapedCluster(t, func(c *MasterConfig) { c.Pipeline = true }, nil)
	normalizeRun(sync0)
	normalizeRun(piped)
	if len(sync0.Run.Records) == 0 {
		t.Fatal("empty run")
	}
	if !reflect.DeepEqual(sync0.Run.Records, piped.Run.Records) {
		for j := range sync0.Run.Records {
			if !reflect.DeepEqual(sync0.Run.Records[j], piped.Run.Records[j]) {
				t.Fatalf("step %d diverged:\n  sync      %+v\n  pipelined %+v",
					j, sync0.Run.Records[j], piped.Run.Records[j])
			}
		}
		t.Fatal("records diverged")
	}
	if len(sync0.Params) == 0 || !reflect.DeepEqual(sync0.Params, piped.Params) {
		t.Fatal("final parameters differ between sync and pipelined runs")
	}
}

// TestShardedGatherEquivalence pins the other half of the tentpole: the
// lane count must change only how gradient bytes travel. Runs with 1, 2,
// and 4 gather lanes per worker must match the single-lane baseline (the
// default worker config) exactly, and every run must have moved one
// sub-frame per lane per worker per step, over the extra lanes it asked
// for.
func TestShardedGatherEquivalence(t *testing.T) {
	base, _ := runShapedCluster(t, nil, nil)
	normalizeRun(base)
	if len(base.Run.Records) == 0 {
		t.Fatal("empty baseline run")
	}
	for _, shards := range []int{1, 2, 4} {
		shards := shards
		res, mm := runShapedCluster(t, nil, func(i int, c *WorkerConfig) { c.GatherShards = shards })
		normalizeRun(res)
		if !reflect.DeepEqual(base.Run.Records, res.Run.Records) {
			t.Fatalf("shards=%d: records diverged from single-lane baseline", shards)
		}
		if !reflect.DeepEqual(base.Params, res.Params) {
			t.Fatalf("shards=%d: final parameters diverged from single-lane baseline", shards)
		}
		if lanes := mm.ShardLanes.Value(); lanes != uint64(4*(shards-1)) {
			t.Fatalf("shards=%d: %d lanes attached, want %d", shards, lanes, 4*(shards-1))
		}
		// 8 steps × 4 workers × shards sub-frames each.
		if want, got := uint64(8*4*shards), mm.SubFrames.Value(); got != want {
			t.Fatalf("shards=%d: %d sub-frames, want %d", shards, got, want)
		}
	}
}

// TestMixedFleetShardInterop runs a deliberately heterogeneous fleet
// against one master: workers asking for 4, 2, 1 and the default number
// of lanes must train together and land on the same math as a uniform
// fleet.
func TestMixedFleetShardInterop(t *testing.T) {
	base, _ := runShapedCluster(t, nil, nil)
	normalizeRun(base)
	lanes := []int{4, 2, 1, 0} // worker 3 keeps the default: one lane
	res, mm := runShapedCluster(t, nil, func(i int, c *WorkerConfig) { c.GatherShards = lanes[i] })
	normalizeRun(res)
	if !reflect.DeepEqual(base.Run.Records, res.Run.Records) {
		t.Fatal("mixed fleet diverged from the uniform baseline")
	}
	if !reflect.DeepEqual(base.Params, res.Params) {
		t.Fatal("mixed fleet produced different final parameters")
	}
	if got := mm.WireConnections.With(WireBinary2).Value(); got != 4 {
		t.Fatalf("binaryv2 connections = %d, want 4", got)
	}
	if got := mm.ShardLanes.Value(); got != 3+1 {
		t.Fatalf("shard lanes = %d, want 4 (3 from worker 0, 1 from worker 1)", got)
	}
	// 8 steps × (4 + 2 + 1 + 1) sub-frames.
	if got := mm.SubFrames.Value(); got != 8*8 {
		t.Fatalf("sub-frames = %d, want %d", got, 8*8)
	}
}

// TestMasterGatherShardsCapNegotiatesDown: a master pinned to
// GatherShards = 1 must grant workers proposing 4 lanes a single binaryv2
// lane each.
func TestMasterGatherShardsCapNegotiatesDown(t *testing.T) {
	_, mm := runShapedCluster(t,
		func(c *MasterConfig) { c.GatherShards = 1 },
		func(i int, c *WorkerConfig) { c.GatherShards = 4 })
	if lanes := mm.ShardLanes.Value(); lanes != 0 {
		t.Fatalf("lanes = %d, want 0 (master capped shards at 1)", lanes)
	}
	if sf := mm.SubFrames.Value(); sf != 8*4 {
		t.Fatalf("sub-frames = %d, want %d (one whole-vector sub-frame per worker per step)", sf, 8*4)
	}
	if got := mm.WireConnections.With(WireBinary2).Value(); got != 4 {
		t.Fatalf("binaryv2 connections = %d, want 4", got)
	}
}

// TestPipelinedStalenessFoldsLateGradients runs the bounded-staleness mode
// over real sockets with a persistent straggler tuned so its uploads land
// during the NEXT step's gather: the master must wait for only 3 workers,
// fold the straggler's late gradients in as corrections, and keep the loss
// moving.
func TestPipelinedStalenessFoldsLateGradients(t *testing.T) {
	st, err := engine.NewISSGD(4)
	if err != nil {
		t.Fatal(err)
	}
	res, mm := runStrategyCluster(t, st,
		func(c *MasterConfig) {
			c.Staleness = 1
			c.MaxSteps = 12
		},
		func(i int, c *WorkerConfig) {
			// Everyone sleeps 40ms; worker 3 sleeps 60ms. Each gather lasts
			// ~40ms and worker 3 arrives ~20ms into the following one — well
			// inside the fold window on any reasonable scheduler.
			d := 40 * time.Millisecond
			if i == 3 {
				d = 60 * time.Millisecond
			}
			c.Delay = straggler.Constant{D: d}
		})
	if res.Run.Steps() != 12 {
		t.Fatalf("steps = %d, want 12", res.Run.Steps())
	}
	for _, rec := range res.Run.Records {
		if rec.Available != 3 {
			t.Fatalf("step %d waited for %d workers, want 3 (W=4, staleness=1)", rec.Step, rec.Available)
		}
	}
	if folded := res.Run.TotalFolded(); folded == 0 {
		t.Fatal("no late gradients folded; the straggler's uploads should land mid-gather")
	} else if got := mm.FoldedGradients.Value(); got != uint64(folded) {
		t.Fatalf("folded counter = %d, records say %d", got, folded)
	}
	first, last := res.Run.Records[0].Loss, res.Run.FinalLoss()
	if !(last < first) {
		t.Fatalf("loss %v → %v, expected decrease", first, last)
	}
}

// TestPipelinedCrashMidOverlap is the -race satellite: a worker dies right
// in the overlap zone — after serving step t's gather but around step
// t+1's broadcast — while the master runs the pipelined loop with sharded
// lanes attached. The master must evict it (primary and lanes together)
// and finish on the survivors.
//
// A record's Alive is the master's view when the step decoded, and the
// three survivors meet the gather target on their own, so on a fast
// enough data plane the last steps could finish before the eviction
// lands. Worker 0 therefore holds its step-6 upload until the master
// logs the eviction: from the crash step on, every record sees it.
func TestPipelinedCrashMidOverlap(t *testing.T) {
	gate := newEventGate("master.worker_evicted")
	res, _ := runShapedCluster(t,
		func(c *MasterConfig) {
			c.Staleness = 1
			c.MaxSteps = 15
			c.LivenessTimeout = time.Second
			c.Events = events.New(events.Config{Writer: gate})
		},
		func(i int, c *WorkerConfig) {
			c.GatherShards = 2
			if i == 0 {
				c.Delay = &gatedDelay{from: 6, open: gate.open}
			}
			if i == 3 {
				// Crash exactly at the overlap boundary: the fault fires
				// when the worker starts step 6, i.e. after its step-5
				// upload, as the pipelined broadcast races the gather tail.
				c.Fault = straggler.CrashAt{Step: 6}
				c.FaultSeed = 3
			}
		})
	if res.Run.Steps() != 15 {
		t.Fatalf("steps = %d, want 15", res.Run.Steps())
	}
	last := res.Run.Records[len(res.Run.Records)-1]
	if last.Alive != 3 {
		t.Fatalf("final alive = %d, want 3 after the crash", last.Alive)
	}
	first, final := res.Run.Records[0].Loss, res.Run.FinalLoss()
	if !(final < first) {
		t.Fatalf("loss %v → %v, expected decrease despite the crash", first, final)
	}
}

func TestMasterConfigPipelineValidation(t *testing.T) {
	st, err := engine.NewSyncSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	flex, err := engine.NewISSGD(2)
	if err != nil {
		t.Fatal(err)
	}
	mdl := model.LinearRegression{Features: 2}
	data, _, err := dataset.SyntheticLinear(10, 2, 0.1, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := MasterConfig{Addr: "127.0.0.1:0", Strategy: flex, Model: mdl, Data: data,
		LearningRate: 0.1, MaxSteps: 1}
	cases := []struct {
		name string
		mut  func(*MasterConfig)
	}{
		{"negative staleness", func(c *MasterConfig) { c.Staleness = -1 }},
		{"staleness on rigid scheme", func(c *MasterConfig) { c.Strategy = st; c.Staleness = 1 }},
		{"pipeline with deadline", func(c *MasterConfig) { c.Pipeline = true; c.Deadline = time.Second }},
		{"staleness with deadline", func(c *MasterConfig) { c.Staleness = 1; c.Deadline = time.Second }},
		{"negative shards", func(c *MasterConfig) { c.GatherShards = -1 }},
		{"shards beyond protocol max", func(c *MasterConfig) { c.GatherShards = maxGatherShards + 1 }},
	}
	for _, tc := range cases {
		bad := good
		tc.mut(&bad)
		if _, err := NewMaster(bad); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Staleness implies Pipeline.
	okCfg := good
	okCfg.Staleness = 1
	m, err := NewMaster(okCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !m.cfg.Pipeline {
		t.Error("Staleness > 0 must imply Pipeline")
	}
	m.ln.Close()
}
