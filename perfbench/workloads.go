package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"isgc/internal/dataset"
	"isgc/internal/engine"
	"isgc/internal/isgc"
	"isgc/internal/model"
	"isgc/internal/placement"
	"isgc/internal/straggler"
)

// workload names one benchmark scenario. README.md records why each one
// exists and which layers it loads.
type workload struct {
	name string
	// threshold is the loss time_to_loss_s waits for; 0 means the model's
	// loss is constant and the run's target is its last step.
	threshold float64
	build     func(seed int64) (*fleetSpec, error)
	// check verifies the outputs of every run of the invocation.
	check func(sp *fleetSpec, reps []*rep) error
}

var workloads = []*workload{
	{name: "wide-gather", build: wideGather, check: checkWideGather},
	{name: "mlp-train", threshold: mlpThreshold, build: mlpTrain, check: checkMLPTrain},
	{name: "pipelined-durable", build: pipelinedDurable, check: checkPipelinedDurable},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// constantData is the placeholder dataset of the model.Constant workloads:
// the model ignores samples, so a few per partition suffice.
func constantData(n int, seed int64) (*dataset.Dataset, error) {
	return dataset.SyntheticClusters(4*n, 2, 2, 1, seed)
}

func crISGC(n, c int, seed int64) func() (engine.Strategy, error) {
	return func() (engine.Strategy, error) {
		p, err := placement.CR(n, c)
		if err != nil {
			return nil, err
		}
		return engine.NewISGC(isgc.New(p, seed))
	}
}

// wideGather: a 2^19-dim constant gradient through IS-GC CR(8,2) with a
// full wait and the sync loop, so the wire, the gather, Recover and the
// update do nearly all the work.
func wideGather(seed int64) (*fleetSpec, error) {
	data, err := constantData(8, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	return &fleetSpec{
		newStrategy: crISGC(8, 2, seed),
		model:       model.Constant{D: 1 << 19, G: 1e-3 * (1 + rng.Float64())},
		data:        data,
		batch:       4,
		lr:          0.1,
		w:           8,
		steps:       100,
		warmup:      3,
		seed:        seed,
	}, nil
}

// equidistantClusters is SyntheticClusters with every pair of class
// centers exactly dist apart: center k is dist/√2 along its own
// seed-chosen axis, with a seed-chosen sign. Noise is N(0, noise²·I) and
// antithetic: each draw z makes two samples of one class, center + z and
// center − z, so every class's sample mean is its center. The model's
// initialization is isotropic, so every seed poses a problem of the same
// difficulty, and training metrics vary little from seed to seed.
func equidistantClusters(m, dim, classes int, dist, noise float64, seed int64) (*dataset.Dataset, error) {
	if classes > dim || m%(2*classes) != 0 {
		return nil, fmt.Errorf("need classes ≤ dim and m a multiple of 2·classes, got m=%d dim=%d classes=%d", m, dim, classes)
	}
	rng := rand.New(rand.NewSource(seed))
	axes := rng.Perm(dim)[:classes]
	signs := make([]float64, classes)
	for k := range signs {
		signs[k] = float64(2*rng.Intn(2) - 1)
	}
	samples := make([]dataset.Sample, 0, m)
	for len(samples) < m {
		k := len(samples) / 2 % classes
		z := make([]float64, dim)
		for j := range z {
			z[j] = noise * rng.NormFloat64()
		}
		for _, sign := range []float64{1, -1} {
			x := make([]float64, dim)
			for j := range x {
				x[j] = sign * z[j]
			}
			x[axes[k]] += signs[k] * dist / math.Sqrt2
			samples = append(samples, dataset.Sample{X: x, Y: float64(k)})
		}
	}
	rng.Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	return dataset.New(samples)
}

// mlpThreshold is crossed about mid-run on every seed (README.md).
const mlpThreshold = 0.3

// mlpTrain: the paper's Fig. 12 setting — an MLP on clustered data under
// IS-GC CR(4,2), waiting for 3 of 4 workers while two of them straggle.
func mlpTrain(seed int64) (*fleetSpec, error) {
	data, err := equidistantClusters(768, 128, 4, 2.5, 0.5, seed)
	if err != nil {
		return nil, err
	}
	delay := straggler.Exponential{Mean: 30 * time.Millisecond}
	return &fleetSpec{
		newStrategy: crISGC(4, 2, seed),
		model:       model.MLP{Features: 128, Hidden: 500, Classes: 4},
		data:        data,
		batch:       64,
		lr:          0.05,
		w:           3,
		steps:       80,
		warmup:      3,
		seed:        seed,
		delays:      []straggler.Model{delay, delay},
	}, nil
}

// pipelinedDurable: a 2^18-dim constant gradient through IS-SGD n=8 on the
// pipelined loop with one step of staleness, two binaryv2 gather lanes
// per worker and a checkpoint every 10 steps; worker 7 is slow enough that
// its gradient lands while the next step gathers and folds in.
func pipelinedDurable(seed int64) (*fleetSpec, error) {
	data, err := constantData(8, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	delays := make([]straggler.Model, 8)
	delays[7] = straggler.Uniform{Min: 4 * time.Millisecond, Max: 8 * time.Millisecond}
	return &fleetSpec{
		newStrategy:  func() (engine.Strategy, error) { return engine.NewISSGD(8) },
		model:        model.Constant{D: 1 << 18, G: 1e-3 * (1 + rng.Float64())},
		data:         data,
		batch:        4,
		lr:           0.1,
		w:            8,
		steps:        200,
		warmup:       3,
		seed:         seed,
		pipeline:     true,
		staleness:    1,
		gatherShards: 2,
		ckptEvery:    10,
		delays:       delays,
	}, nil
}

// closedForm checks the model.Constant runs: every step applies exactly
// −lr·G to every parameter, however many partitions it recovered, and an
// exact fold changes nothing, so after T steps each parameter is −T·lr·G
// up to rounding (which also rules out NaN and Inf).
func closedForm(sp *fleetSpec, params []float64) error {
	want := closedFormValue(sp)
	if len(params) != sp.model.Dim() {
		return fmt.Errorf("final params have dim %d, want %d", len(params), sp.model.Dim())
	}
	for i, p := range params {
		if math.Abs(p-want) > 1e-9*math.Abs(want) {
			return fmt.Errorf("param %d = %v, want −T·lr·G = %v", i, p, want)
		}
	}
	return nil
}

func closedFormValue(sp *fleetSpec) float64 {
	return -float64(sp.steps) * sp.lr * sp.model.(model.Constant).G
}

func checkWideGather(sp *fleetSpec, reps []*rep) error {
	for k, r := range reps {
		if err := closedForm(sp, r.params); err != nil {
			return fmt.Errorf("run %d: %w", k, err)
		}
		for _, rec := range r.records {
			if rec.RecoveredFraction != 1 {
				return fmt.Errorf("run %d step %d: recovered fraction %v, want 1", k, rec.Step, rec.RecoveredFraction)
			}
		}
	}
	return nil
}

func checkMLPTrain(sp *fleetSpec, reps []*rep) error {
	var first float64
	for k, r := range reps {
		if crossingStep(r.records, mlpThreshold) < 0 {
			return fmt.Errorf("run %d: loss never reached %v (final %v)", k, mlpThreshold, lastLoss(r))
		}
		if k == 0 {
			first = lastLoss(r)
		} else if l := lastLoss(r); math.Abs(l-first) > 1e-9*math.Abs(first) {
			return fmt.Errorf("run %d: final loss %v differs from run 0's %v by more than 1e-9 relative", k, l, first)
		}
	}
	return nil
}

func checkPipelinedDurable(sp *fleetSpec, reps []*rep) error {
	for k, r := range reps {
		if err := closedForm(sp, r.params); err != nil {
			return fmt.Errorf("run %d: %w", k, err)
		}
		folded := 0
		for _, rec := range r.records {
			folded += rec.Folded
			if rec.RecoveredFraction < 7.0/8 {
				return fmt.Errorf("run %d step %d: recovered fraction %v, want ≥ 7/8", k, rec.Step, rec.RecoveredFraction)
			}
		}
		if folded == 0 {
			return fmt.Errorf("run %d: no straggler gradient was folded", k)
		}
		if r.restoredErr != nil {
			return fmt.Errorf("run %d: restore: %w", k, r.restoredErr)
		}
		if len(r.restored) != len(r.params) {
			return fmt.Errorf("run %d: checkpoint holds %d params, run ended with %d", k, len(r.restored), len(r.params))
		}
		for i := range r.params {
			if math.Float64bits(r.restored[i]) != math.Float64bits(r.params[i]) {
				return fmt.Errorf("run %d: restored param %d = %v, final %v", k, i, r.restored[i], r.params[i])
			}
		}
	}
	return nil
}
