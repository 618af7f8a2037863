package engine

import (
	"errors"
	"fmt"
	"time"

	"isgc/internal/bitset"
	"isgc/internal/checkpoint"
	"isgc/internal/dataset"
	"isgc/internal/events"
	"isgc/internal/linalg"
	"isgc/internal/model"
	"isgc/internal/simclock"
	"isgc/internal/straggler"
	"isgc/internal/trace"
)

// Config describes one training run.
type Config struct {
	// Strategy is the straggler-mitigation scheme under test.
	Strategy Strategy
	// Model is the workload.
	Model model.Model
	// Data is the full training set; it is split into Strategy.N() equal
	// partitions.
	Data *dataset.Dataset
	// BatchSize is the per-partition mini-batch size.
	BatchSize int
	// LearningRate is the SGD step size η.
	LearningRate float64
	// LRSchedule, when non-nil, multiplies LearningRate per step (e.g.
	// step-decay or 1/t decay); it must return positive factors.
	LRSchedule func(step int) float64
	// Momentum is the classical heavy-ball coefficient μ ∈ [0, 1): the
	// update keeps a velocity v ← μ·v + ĝ_mean and steps by η·v. Zero
	// (the default) is plain SGD; the paper's torch.optim.SGD exposes the
	// same knob.
	Momentum float64
	// WeightDecay is an L2 penalty coefficient λ added to the gradient as
	// λ·β (decoupled from the loss evaluation, like torch's SGD).
	WeightDecay float64
	// W is the number of workers the master waits for each step (flexible
	// schemes only; Sync-SGD and classic GC override it).
	W int
	// WSchedule, when non-nil, overrides W per step for flexible schemes:
	// the master waits for WSchedule(step) workers. This implements the
	// adaptive policy sketched in Sec. IV of the paper — "receive
	// gradients from fewer workers at the beginning to save time, and
	// then from more workers afterwards until convergence". Rigid schemes
	// (Sync-SGD, classic GC) still override the value.
	WSchedule func(step int) int
	// Deadline, when positive, switches the gather from fastest-w to the
	// deadline policy of Sec. IV: each step the master accepts exactly
	// the workers that finish within Deadline. When nobody makes the
	// deadline the master waits for the single fastest worker (an empty
	// step would make no progress) and the step is charged that worker's
	// arrival time. Rigid schemes ignore it. Takes precedence over
	// WSchedule.
	Deadline time.Duration
	// Staleness, when positive, simulates the cluster's pipelined
	// bounded-staleness mode (cluster.MasterConfig.Staleness): the master
	// waits for only max(1, WaitFor(W)−Staleness) workers each step, and
	// every straggler keeps uploading in the background — its remaining
	// simulated time carries across steps, and when it runs out the late
	// gradient lands in that step's gather window and folds into the
	// parameters as the exact correction that retroactively includes it
	// in its own step's normalized update (conflicting partitions cannot
	// fold and are dropped). Uploads still in flight after Staleness
	// steps are abandoned. Flexible schemes only; requires Momentum == 0
	// and WeightDecay == 0 (folds compose additively on plain SGD) and
	// excludes Deadline. A checkpoint restore resumes with an empty
	// in-flight queue: uploads pending at the snapshot are dropped.
	Staleness int
	// MaxSteps bounds the run.
	MaxSteps int
	// LossThreshold stops the run once the full-training-set loss drops
	// to or below it; 0 disables the threshold (the paper trains "until
	// the training loss reaches a given threshold").
	LossThreshold float64
	// ComputePerPartition and Upload parameterize the simulated step time
	// (see simclock); both may be zero for pure-convergence experiments.
	ComputePerPartition time.Duration
	Upload              time.Duration
	// Profile injects straggler delays (nil = none).
	Profile *straggler.Profile
	// ComputeFactors optionally makes the fleet heterogeneous: worker i's
	// compute time is scaled by ComputeFactors[i] (see simclock). Nil
	// means homogeneous.
	ComputeFactors []float64
	// Seed drives parameter initialization and batch sampling; runs with
	// equal seeds start from identical parameters and see identical
	// batches, mirroring the paper's controlled-seed methodology.
	Seed int64
	// EvalEvery controls how often the full training loss is evaluated
	// (every step if ≤ 1). Loss records between evaluations repeat the
	// last value.
	EvalEvery int
	// Parallel computes the per-partition gradients of a step on separate
	// goroutines. Results are bit-identical to the serial path (each
	// partition writes its own slot); worth enabling for large models.
	Parallel bool
	// ComputePar sets the compute pool size explicitly: 1 forces the
	// sequential path, >1 uses that many long-lived workers, and 0 defers
	// to Parallel (true = GOMAXPROCS, false = sequential). Whatever the
	// value, parallelism stays at partition granularity, so results are
	// bit-identical to the sequential path.
	ComputePar int
	// DecodeCache, when positive, memoizes decode results in an LRU of
	// that many availability masks (isgc schemes only; see
	// isgc.Scheme.EnableDecodeCache for the fairness tradeoff). Repeated
	// masks then skip the decoder's rng draws, so runs with the cache on
	// may pick different — equally large — independent sets than runs
	// with it off.
	DecodeCache int
	// IncrementalDecode, when true, repairs the previous step's chosen
	// worker set against the availability delta instead of re-solving from
	// scratch (isgc schemes only; see isgc.Scheme.EnableIncrementalDecode).
	// Results keep the exact maximum-recovery guarantee; like the decode
	// cache, the repair path freezes the randomized tie-breaking while the
	// mask drifts, so it is opt-in.
	IncrementalDecode bool
	// Metrics, when non-nil, receives live instrumentation (step wall
	// time, decode MIS size, partitions recovered); serve it via the
	// admin package. Nil costs one branch per step.
	Metrics *Metrics
	// Events, when non-nil, receives structured run/step events. Nil
	// disables event logging.
	Events *events.Log
	// Attribution, when non-nil, accumulates per-worker compute/arrival
	// samples from the simulated clock so the straggler-attribution
	// report works for in-process experiments exactly as it does for the
	// TCP cluster. Nil costs one branch per step.
	Attribution *trace.Attribution
	// Checkpoint, when non-nil, persists a durable snapshot every
	// CheckpointEvery steps plus a final one marked Completed. Restore
	// resumes from the newest valid snapshot; the resumed run's records
	// and final params are bit-identical to an uninterrupted run from the
	// checkpoint boundary on (DecodeCache off — see DESIGN.md
	// "Durability").
	Checkpoint *checkpoint.Store
	// CheckpointEvery is the period in steps (0 = final checkpoint only).
	CheckpointEvery int
	// Restore resumes from Checkpoint's newest valid snapshot when one
	// exists; a fresh directory cold-starts.
	Restore bool
	// Interrupt, when non-nil, is polled at every step boundary: returning
	// true stops the run there, writes a final (non-Completed) checkpoint
	// when Checkpoint is set, and returns with Result.Interrupted. This is
	// the graceful-shutdown hook the CLIs wire to SIGTERM/SIGINT.
	Interrupt func(step int) bool
}

// Result summarizes a completed run.
type Result struct {
	// Run holds the per-step records.
	Run trace.Run
	// Params is the final parameter vector.
	Params []float64
	// Converged reports whether the loss threshold was reached before
	// MaxSteps.
	Converged bool
	// StepsToThreshold is the 1-based step count at convergence
	// (== Run.Steps() when Converged; MaxSteps otherwise).
	StepsToThreshold int
	// Interrupted reports the run stopped early via Config.Interrupt; the
	// final checkpoint (if any) is resumable, not Completed.
	Interrupted bool
}

// RandStateful is the optional Strategy capability behind checkpointing:
// schemes whose decode draws from a seeded RNG (IS-GC's fairness
// tie-breaks) expose the stream position so a checkpoint can capture it
// and a restore can land on the exact next draw.
type RandStateful interface {
	// RandState returns the RNG's (seed, draws-so-far) position.
	RandState() (seed int64, draws uint64)
	// RestoreRandState repositions the RNG.
	RestoreRandState(seed int64, draws uint64)
}

// DecodeCacher is the optional Strategy capability behind Config.DecodeCache:
// schemes whose decode is a pure function of the availability mask (IS-GC)
// expose memoization through it. See isgc.Scheme.EnableDecodeCache.
type DecodeCacher interface {
	// EnableDecodeCache turns on an LRU of the given capacity.
	EnableDecodeCache(capacity int)
	// SetDecodeCacheHooks registers hit/miss callbacks (either may be nil).
	SetDecodeCacheHooks(onHit, onMiss func())
	// DecodeCacheStats returns cumulative hits and misses.
	DecodeCacheStats() (hits, misses uint64)
}

// IncrementalDecoder is the optional Strategy capability behind
// Config.IncrementalDecode: schemes that can repair the previous chosen
// set against a mask delta expose the path through it. See
// isgc.Scheme.EnableIncrementalDecode for the repair and fallback rules.
type IncrementalDecoder interface {
	// EnableIncrementalDecode turns on incremental repair.
	EnableIncrementalDecode()
	// SetIncrementalHooks registers repair/fallback callbacks (either may
	// be nil).
	SetIncrementalHooks(onRepair, onFallback func())
	// IncrementalDecodeCounts returns cumulative repairs, fallbacks, full
	// solves, and cache syncs.
	IncrementalDecodeCounts() (repairs, fallbacks, fullSolves, cacheSyncs uint64)
}

// computePar resolves the pool size: ComputePar wins when set, otherwise
// the legacy Parallel bool picks between GOMAXPROCS and sequential.
func (cfg *Config) computePar() int {
	if cfg.ComputePar != 0 {
		return cfg.ComputePar
	}
	if cfg.Parallel {
		return -1 // NewParallelGrad: auto = GOMAXPROCS
	}
	return 1
}

// Train runs distributed SGD under the configured scheme and returns the
// trace. The run is fully deterministic given Config.
func Train(cfg Config) (*Result, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	st := cfg.Strategy
	n := st.N()
	cfg.Events.Info("engine.run_started", "in-process training started", events.NoStep, events.NoWorker,
		events.Fields{"scheme": st.Name(), "workers": n, "max_steps": cfg.MaxSteps})

	parts, err := cfg.Data.Partition(n)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	loaders := make([]*dataset.Loader, n)
	for d := range loaders {
		// The loader seed depends only on (run seed, partition): replicas
		// of a partition on different workers share batches.
		loaders[d], err = dataset.NewLoader(parts[d], cfg.BatchSize, cfg.Seed+int64(d)*7919)
		if err != nil {
			return nil, fmt.Errorf("engine: partition %d: %w", d, err)
		}
	}

	sim, err := simclock.New(simclock.Config{
		N:                   n,
		ComputePerPartition: cfg.ComputePerPartition,
		PartitionsPerWorker: st.C(),
		Upload:              cfg.Upload,
		Profile:             cfg.Profile,
		ComputeFactors:      cfg.ComputeFactors,
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	params := cfg.Model.InitParams(cfg.Seed)
	var velocity []float64 // lazily allocated momentum buffer
	all := materialize(cfg.Data)
	res := &Result{}

	// One long-lived compute pool per run; partitions are its unit of
	// work, so any pool size yields bit-identical results.
	pool := model.NewParallelGrad(cfg.computePar())
	defer pool.Close()
	if cfg.Metrics != nil {
		cfg.Metrics.ComputeShards.Set(float64(pool.Par()))
	}
	if cfg.DecodeCache > 0 {
		if dc, ok := st.(DecodeCacher); ok {
			if cfg.Metrics != nil {
				dc.SetDecodeCacheHooks(cfg.Metrics.DecodeCacheHits.Inc, cfg.Metrics.DecodeCacheMisses.Inc)
			}
			dc.EnableDecodeCache(cfg.DecodeCache)
		}
	}
	if cfg.IncrementalDecode {
		if id, ok := st.(IncrementalDecoder); ok {
			if cfg.Metrics != nil {
				id.SetIncrementalHooks(cfg.Metrics.DecodeRepairs.Inc, cfg.Metrics.DecodeFallbacks.Inc)
			}
			id.EnableIncrementalDecode()
		}
	}
	// Per-partition gradient buffers, reused every step: after the first
	// step the gradient stage allocates nothing.
	gradBuf := make([][]float64, n)
	grads := make([][]float64, n)
	tasks := make([]func(), 0, n)

	classifier, isClassifier := cfg.Model.(model.Classifier)
	lastLoss := cfg.Model.Loss(params, all)
	lastAcc := 0.0
	if isClassifier {
		lastAcc = model.Accuracy(classifier, params, all)
	}
	rigid := st.WaitFor(1) == st.WaitFor(n) // Sync-SGD / classic GC

	// Checkpoint/restore: startStep > 0 means this run resumes a durable
	// snapshot; steps [0, startStep) already happened in a previous life
	// and res.Run covers [startStep, end) only.
	startStep := 0
	alreadyComplete := false
	// One params and one velocity buffer serve every save; params' is
	// never nil, so empty params marshal as "" as Float64sToBytes's do.
	ckptParams, ckptVelocity := []byte{}, []byte(nil)
	saveCheckpoint := func(nextStep int, completed bool) error {
		ckptParams = checkpoint.AppendFloat64s(ckptParams[:0], params)
		cst := checkpoint.State{
			Version:         checkpoint.Version,
			Scheme:          st.Name(),
			N:               n,
			C:               st.C(),
			Seed:            cfg.Seed,
			W:               cfg.W,
			Step:            nextStep,
			Params:          ckptParams,
			LastLoss:        lastLoss,
			LastAccuracy:    lastAcc,
			EventCursor:     cfg.Events.Total(),
			RecordCursor:    res.Run.Steps(),
			Completed:       completed,
			SavedAtUnixNano: time.Now().UnixNano(),
		}
		if velocity != nil {
			ckptVelocity = checkpoint.AppendFloat64s(ckptVelocity[:0], velocity)
			cst.Velocity = ckptVelocity
		}
		if rs, ok := st.(RandStateful); ok {
			cst.DecoderSeed, cst.DecoderDraws = rs.RandState()
		}
		if cfg.Profile != nil {
			cst.ProfileActive = true
			cst.ProfileSeed, cst.ProfileDraws = cfg.Profile.RandState()
		}
		_, err := cfg.Checkpoint.Save(nextStep, &cst)
		return err
	}
	if cfg.Restore && cfg.Checkpoint != nil {
		var cst checkpoint.State
		info, err := cfg.Checkpoint.Latest(&cst)
		switch {
		case errors.Is(err, checkpoint.ErrNoCheckpoint):
			// Fresh directory: cold start.
		case err != nil:
			return nil, fmt.Errorf("engine: restore: %w", err)
		default:
			if cst.Scheme != st.Name() || cst.N != n || cst.Seed != cfg.Seed {
				return nil, fmt.Errorf("engine: checkpoint %s is for scheme=%q n=%d seed=%d, config says scheme=%q n=%d seed=%d",
					info.File, cst.Scheme, cst.N, cst.Seed, st.Name(), n, cfg.Seed)
			}
			params = checkpoint.BytesToFloat64s(cst.Params)
			if len(cst.Velocity) > 0 {
				velocity = checkpoint.BytesToFloat64s(cst.Velocity)
			}
			startStep = cst.Step
			lastLoss = cst.LastLoss
			lastAcc = cst.LastAccuracy
			if rs, ok := st.(RandStateful); ok {
				rs.RestoreRandState(cst.DecoderSeed, cst.DecoderDraws)
			}
			if cst.ProfileActive && cfg.Profile != nil {
				cfg.Profile.RestoreRandState(cst.ProfileSeed, cst.ProfileDraws)
			}
			if cst.Completed {
				startStep = cfg.MaxSteps // nothing left to replay
				alreadyComplete = true
				res.Converged = cst.Step < cfg.MaxSteps
				if res.Converged {
					res.StepsToThreshold = cst.Step
				}
			}
			cfg.Events.Info("engine.restored", "resumed from checkpoint", cst.Step, events.NoWorker,
				events.Fields{"file": info.File, "completed": cst.Completed})
		}
	}

	// Bounded-staleness simulation state (Config.Staleness): lateQ holds
	// the stragglers' in-flight uploads with the simulated time left until
	// they land, open the recent steps they may still fold into, busy the
	// workers mid-upload (they rejoin the fleet once their upload lands or
	// is abandoned).
	type lateUpload struct {
		step      int
		worker    int
		remaining time.Duration
		coded     []float64
		lr        float64
	}
	type openStep struct {
		step int
		mask *bitset.Set // partitions already counted in the step's update
		g    []float64   // running decoded sum G
		r    int         // running recovered-partition count
	}
	var lateQ []*lateUpload
	var open []*openStep
	var busy []bool
	var maskedTimes []time.Duration
	if cfg.Staleness > 0 {
		busy = make([]bool, n)
		maskedTimes = make([]time.Duration, n)
	}
	// foldLate retroactively includes one landed upload in its own step's
	// normalized update: params −= η_t·((G+g)/(r+c) − G/r), the exact
	// difference between that step's mean-gradient update with and without
	// the straggler. A worker whose partitions were already counted (a
	// replica beat it) cannot fold and is dropped.
	foldLate := func(lu *lateUpload) bool {
		var p *openStep
		for _, q := range open {
			if q.step == lu.step {
				p = q
				break
			}
		}
		if p == nil || len(lu.coded) != len(params) {
			return false
		}
		wparts := st.Partitions(lu.worker)
		for _, d := range wparts {
			if p.mask.Contains(d) {
				return false
			}
		}
		rOld, rNew := float64(p.r), float64(p.r+len(wparts))
		for j, g := range lu.coded {
			ng := p.g[j] + g
			old := 0.0
			if p.r > 0 {
				old = p.g[j] / rOld
			}
			params[j] -= lu.lr * (ng/rNew - old)
			p.g[j] = ng
		}
		p.r += len(wparts)
		for _, d := range wparts {
			p.mask.Add(d)
		}
		return true
	}

	for step := startStep; step < cfg.MaxSteps; step++ {
		var wallStart time.Time
		if cfg.Metrics != nil {
			wallStart = time.Now()
		}
		// 1. Straggler simulation: who is available, and how long the
		// master waited — fastest-w by default, optionally per-step
		// adaptive w or a fixed deadline (Sec. IV policies).
		times := sim.Step()
		var avail *bitset.Set
		var elapsed time.Duration
		var err error
		switch {
		case cfg.Staleness > 0:
			// Pipelined bounded-staleness gather: wait for Staleness fewer
			// workers, among those not still uploading an earlier step.
			w := cfg.W
			if cfg.WSchedule != nil {
				w = cfg.WSchedule(step)
			}
			target := st.WaitFor(w) - cfg.Staleness
			if target < 1 {
				target = 1
			}
			eligible := 0
			copy(maskedTimes, times)
			for i, b := range busy {
				if b {
					maskedTimes[i] = time.Duration(1) << 62 // never the fastest
				} else {
					eligible++
				}
			}
			if target > eligible {
				target = eligible
			}
			avail, elapsed, err = simclock.FastestW(maskedTimes, target)
		case cfg.Deadline > 0 && !rigid:
			avail, elapsed = simclock.Deadline(times, cfg.Deadline)
			if avail.Empty() {
				avail, elapsed, err = simclock.FastestW(times, 1)
			}
		case cfg.WSchedule != nil:
			avail, elapsed, err = simclock.FastestW(times, st.WaitFor(cfg.WSchedule(step)))
		default:
			avail, elapsed, err = simclock.FastestW(times, st.WaitFor(cfg.W))
		}
		if err != nil {
			return nil, fmt.Errorf("engine: step %d: %w", step, err)
		}
		if cfg.Attribution != nil {
			// The simulated clock decomposes exactly: arrival is the
			// worker's total finish time, compute is its share before
			// upload and injected delay.
			for i := 0; i < n; i++ {
				if busy != nil && busy[i] {
					continue // mid-upload from an earlier step; no arrival here
				}
				compute := time.Duration(st.C()) * cfg.ComputePerPartition
				if cfg.ComputeFactors != nil {
					compute = time.Duration(float64(compute) * cfg.ComputeFactors[i])
				}
				sample := trace.ArrivalSample{Worker: i, Step: step, Compute: compute, Arrival: times[i]}
				if avail.Contains(i) {
					cfg.Attribution.ObserveAccepted(sample)
				} else {
					cfg.Attribution.ObserveIgnored(sample)
				}
			}
		}

		// 2. Per-partition mean gradients for this step's batches. Thanks
		// to the controlled seeds, a partition's gradient is identical on
		// every worker replicating it, so we compute each once — each
		// needed partition into its own reusable buffer, on the pool.
		// Partition granularity keeps any pool size bit-identical to the
		// sequential path.
		// Under staleness every eligible worker computes and encodes this
		// step — the stragglers' uploads stay in flight and may fold into a
		// later step, so their coded vectors are needed too.
		uploaders := avail
		if cfg.Staleness > 0 {
			up := bitset.New(n)
			for i, b := range busy {
				if !b {
					up.Add(i)
				}
			}
			uploaders = up
		}
		for d := range grads {
			grads[d] = nil
		}
		tasks = tasks[:0]
		uploaders.Range(func(i int) bool {
			for _, d := range st.Partitions(i) {
				if grads[d] != nil {
					continue
				}
				if gradBuf[d] == nil {
					gradBuf[d] = make([]float64, cfg.Model.Dim())
				}
				grads[d] = gradBuf[d]
				d := d
				tasks = append(tasks, func() {
					cfg.Model.GradInto(gradBuf[d], params, loaders[d].Samples(step))
				})
			}
			return true
		})
		pool.Run(tasks...)

		// 3. Worker-side encoding for available workers.
		coded := make([][]float64, n)
		var encodeErr error
		uploaders.Range(func(i int) bool {
			coded[i], encodeErr = st.Encode(i, grads)
			return encodeErr == nil
		})
		if encodeErr != nil {
			return nil, fmt.Errorf("engine: step %d: %w", step, encodeErr)
		}

		// 3b. Land the in-flight uploads whose remaining time ran out during
		// this step's gather window and abandon those that aged out of the
		// staleness window. Folds mutate params alongside this step's
		// update, mirroring the cluster master where late arrivals land
		// mid-gather; either worker rejoins the eligible fleet next step.
		folded := 0
		if cfg.Staleness > 0 {
			kept := lateQ[:0]
			for _, lu := range lateQ {
				lu.remaining -= elapsed
				if lu.remaining > 0 && step-lu.step < cfg.Staleness {
					kept = append(kept, lu)
					continue
				}
				busy[lu.worker] = false
				if lu.remaining <= 0 && foldLate(lu) {
					folded++
					if cfg.Attribution != nil {
						cfg.Attribution.ObserveAccepted(trace.ArrivalSample{Worker: lu.worker, Step: lu.step})
					}
				}
			}
			lateQ = kept
		}

		// 4. Master-side recovery and parameter update, normalized by the
		// recovered-partition count for an unbiased mean-gradient
		// estimate (Assumption 2).
		ghat, recParts, err := st.Recover(avail, coded)
		if err != nil {
			return nil, fmt.Errorf("engine: step %d: %w", step, err)
		}
		recovered := len(recParts)
		if recovered > 0 {
			lr := cfg.LearningRate
			if cfg.LRSchedule != nil {
				factor := cfg.LRSchedule(step)
				if factor <= 0 {
					return nil, fmt.Errorf("engine: LRSchedule(%d) = %v, need > 0", step, factor)
				}
				lr *= factor
			}
			// ĝ_mean is the unbiased mean-gradient estimate.
			inv := 1 / float64(recovered)
			if cfg.Momentum > 0 || cfg.WeightDecay > 0 {
				if velocity == nil {
					velocity = make([]float64, len(params))
				}
				for j := range velocity {
					g := ghat[j] * inv
					if cfg.WeightDecay > 0 {
						g += cfg.WeightDecay * params[j]
					}
					velocity[j] = cfg.Momentum*velocity[j] + g
					params[j] -= lr * velocity[j]
				}
			} else {
				linalg.AXPY(params, -lr*inv, ghat)
			}
		}

		// 4b. Open this step for late folds and enqueue the remaining upload
		// time of the stragglers this gather did not wait for.
		if cfg.Staleness > 0 {
			stepLR := cfg.LearningRate
			if cfg.LRSchedule != nil {
				factor := cfg.LRSchedule(step)
				if factor <= 0 {
					return nil, fmt.Errorf("engine: LRSchedule(%d) = %v, need > 0", step, factor)
				}
				stepLR *= factor
			}
			g := ghat
			if g == nil {
				g = make([]float64, len(params))
			}
			mask := bitset.New(n)
			for _, d := range recParts {
				mask.Add(d)
			}
			keep := open[:0]
			for _, p := range open {
				if p.step > step-cfg.Staleness {
					keep = append(keep, p)
				}
			}
			open = append(keep, &openStep{step: step, mask: mask, g: g, r: recovered})
			uploaders.Range(func(i int) bool {
				if !avail.Contains(i) {
					busy[i] = true
					lateQ = append(lateQ, &lateUpload{
						step: step, worker: i, remaining: times[i] - elapsed,
						coded: append([]float64(nil), coded[i]...), lr: stepLR,
					})
				}
				return true
			})
		}

		// 5. Bookkeeping.
		if cfg.EvalEvery <= 1 || (step+1)%cfg.EvalEvery == 0 || step == cfg.MaxSteps-1 {
			lastLoss = cfg.Model.Loss(params, all)
			if isClassifier {
				lastAcc = model.Accuracy(classifier, params, all)
			}
		}
		if cfg.Metrics != nil {
			cfg.Metrics.observeStep(time.Since(wallStart), recovered/st.C(),
				recovered, float64(recovered)/float64(n))
		}
		cfg.Events.Debug("engine.step_completed", "simulated step finished", step, events.NoWorker,
			events.Fields{"available": avail.Len(), "recovered": recovered,
				"loss": lastLoss, "elapsed": elapsed.String()})
		res.Run.Append(trace.StepRecord{
			Step:              step,
			Available:         avail.Len(),
			Chosen:            recovered / st.C(),
			RecoveredFraction: float64(recovered) / float64(n),
			Partitions:        recParts,
			Folded:            folded,
			Loss:              lastLoss,
			Accuracy:          lastAcc,
			Elapsed:           elapsed,
		})
		if cfg.LossThreshold > 0 && lastLoss <= cfg.LossThreshold {
			res.Converged = true
			res.StepsToThreshold = step + 1
			break
		}
		if cfg.Interrupt != nil && cfg.Interrupt(step) {
			res.Interrupted = true
			if cfg.Checkpoint != nil {
				if err := saveCheckpoint(step+1, false); err != nil {
					return nil, fmt.Errorf("engine: interrupt checkpoint: %w", err)
				}
			}
			cfg.Events.Info("engine.interrupted", "run stopped at step boundary", step, events.NoWorker, nil)
			break
		}
		if cfg.Checkpoint != nil && cfg.CheckpointEvery > 0 && (step+1)%cfg.CheckpointEvery == 0 && step+1 < cfg.MaxSteps {
			if err := saveCheckpoint(step+1, false); err != nil {
				return nil, fmt.Errorf("engine: step %d: %w", step, err)
			}
			cfg.Events.Debug("engine.checkpoint_written", "periodic checkpoint saved", step, events.NoWorker, nil)
		}
	}
	if !res.Converged {
		res.StepsToThreshold = cfg.MaxSteps
	}
	res.Params = params
	if cfg.Checkpoint != nil && !alreadyComplete && !res.Interrupted {
		end := startStep + res.Run.Steps()
		if err := saveCheckpoint(end, true); err != nil {
			return nil, fmt.Errorf("engine: final checkpoint: %w", err)
		}
	}
	cfg.Events.Info("engine.run_finished", "in-process training finished", events.NoStep, events.NoWorker,
		events.Fields{"steps": res.Run.Steps(), "converged": res.Converged})
	return res, nil
}

func validate(cfg *Config) error {
	switch {
	case cfg.Strategy == nil:
		return fmt.Errorf("engine: nil strategy")
	case cfg.Model == nil:
		return fmt.Errorf("engine: nil model")
	case cfg.Data == nil:
		return fmt.Errorf("engine: nil dataset")
	case cfg.BatchSize <= 0:
		return fmt.Errorf("engine: need BatchSize > 0, got %d", cfg.BatchSize)
	case cfg.LearningRate <= 0:
		return fmt.Errorf("engine: need LearningRate > 0, got %v", cfg.LearningRate)
	case cfg.Momentum < 0 || cfg.Momentum >= 1:
		return fmt.Errorf("engine: need Momentum in [0, 1), got %v", cfg.Momentum)
	case cfg.WeightDecay < 0:
		return fmt.Errorf("engine: need WeightDecay ≥ 0, got %v", cfg.WeightDecay)
	case cfg.MaxSteps <= 0:
		return fmt.Errorf("engine: need MaxSteps > 0, got %d", cfg.MaxSteps)
	case cfg.ComputePar < 0:
		return fmt.Errorf("engine: need ComputePar ≥ 0, got %d", cfg.ComputePar)
	case cfg.DecodeCache < 0:
		return fmt.Errorf("engine: need DecodeCache ≥ 0, got %d", cfg.DecodeCache)
	case cfg.Staleness < 0:
		return fmt.Errorf("engine: need Staleness ≥ 0, got %d", cfg.Staleness)
	}
	if cfg.Staleness > 0 {
		if cfg.Strategy.WaitFor(1) == cfg.Strategy.WaitFor(cfg.Strategy.N()) {
			return fmt.Errorf("engine: Staleness requires a flexible scheme; %s is rigid", cfg.Strategy.Name())
		}
		if cfg.Momentum > 0 || cfg.WeightDecay > 0 {
			return fmt.Errorf("engine: Staleness requires Momentum == 0 and WeightDecay == 0 (folds compose additively on plain SGD)")
		}
		if cfg.Deadline > 0 {
			return fmt.Errorf("engine: Staleness and Deadline are mutually exclusive")
		}
	}
	return nil
}

func materialize(d *dataset.Dataset) []dataset.Sample {
	out := make([]dataset.Sample, d.Len())
	for i := range out {
		out[i] = d.At(i)
	}
	return out
}
