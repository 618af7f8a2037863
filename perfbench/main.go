// Command perfbench is the repository benchmark: it trains real
// cluster.Master and cluster.Worker fleets over loopback TCP inside one
// process, prints end-to-end metrics measured with tracing off, or — with
// --trace 1 — per-layer metrics timed from outside around the layers'
// public calls, and checks every workload's outputs. README.md describes
// the workloads and metrics.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare <result.json> <result.json>
//
// The last line of standard output is the result as one JSON object; the
// exit code is 0 only when every output check passed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"
)

// setupRuns is how many one-step runs precede the measured ones.
const setupRuns = 6

// workdir holds checkpoints, span files and result files, under the build
// directory run.py keeps at the repository root.
var workdir = filepath.Join(".bench_build", "perfbench")

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout))
}

// result is what one invocation reports; the last stdout line carries
// its first four fields, the result file all of it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Unbounded map[string]metric `json:"unbounded,omitempty"`
	Shape     *shape            `json:"shape,omitempty"`
	Problems  []string          `json:"problems,omitempty"`
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: wide-gather, mlp-train or pipelined-durable")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Int("seconds", 10, "how long to measure; whole training runs repeat until it is spent")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of wide-gather, mlp-train, pipelined-durable), --seconds ≥ 1, --trace 0|1 (%v)\n", err)
		return 2
	}
	sp, err := wl.build(*seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: build inputs: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	sh := machineShape(wl.name, *seed, *traceMode)
	line, _ := json.Marshal(sh)
	fmt.Fprintf(stdout, "shape %s\n", line)

	// Whole runs repeat until the next would overrun the budget: at least
	// three untraced runs, or one untraced and one traced alternating.
	budget := time.Duration(*seconds) * time.Second
	minRuns := 3
	if *traceMode == 1 {
		minRuns = 2
	}
	begin := time.Now()
	// Extra one-step runs add set-up samples, so setup_s is a median of
	// several even when only three full runs fit.
	var setups []float64
	var problems []string
	one := *sp
	one.steps = 1
	for k := 0; k < setupRuns; k++ {
		r := runFleet(&one, false, workdir)
		if r.err != nil || len(r.returns) == 0 {
			problems = append(problems, fmt.Sprintf("set-up run %d: %v", k, r.err))
			continue
		}
		setups = append(setups, r.returns[0].Sub(r.start).Seconds())
	}

	var plain, traced, all []*rep
	runsStart := time.Now()
	for k := 0; ; k++ {
		r := runFleet(sp, *traceMode == 1 && k%2 == 1, workdir)
		all = append(all, r)
		if r.traced {
			r.gathers = assignSteps(r)
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		fmt.Fprintf(stdout, "run %d traced=%v steps=%d %s\n", k, r.traced, len(r.records), runSummary(wl, sp, r))
		perRun := time.Since(runsStart) / time.Duration(len(all))
		if r.err != nil || (len(all) >= minRuns && time.Since(begin)+perRun > budget) {
			break
		}
	}

	res := result{Correct: len(problems) == 0, Shape: sh, Metrics: map[string]metric{}, Problems: problems}
	fail := func(format string, a ...any) {
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf(format, a...))
	}
	for k, r := range all {
		res.Attempted += sp.steps
		res.Failed += failedSteps(sp, r)
		if r.err != nil {
			fail("run %d: %v", k, r.err)
		}
	}
	if res.Correct {
		if err := wl.check(sp, all); err != nil {
			fail("%s output check: %v", wl.name, err)
		}
	}
	e2e, p95 := endToEnd(wl, sp, plain, setups)
	res.Unbounded = map[string]metric{p95.Name: p95}
	errRate := float64(res.Failed) / float64(res.Attempted)
	var ms []metric
	if *traceMode == 0 {
		ms = e2e
		fmt.Fprintf(stdout, "%-37s %14.6g %s (no bound)\n", p95.Name, p95.Value, p95.Unit)
	} else {
		wire, err := measureWire(sp.model.Dim(), 15)
		if err != nil {
			fail("wire: %v", err)
		}
		var coverage error
		ms, coverage = perLayer(sp, traced, plain, wire)
		if coverage != nil {
			fail("coverage: %v", coverage)
		}
		path := filepath.Join(workdir, fmt.Sprintf("%s-seed%d.trace.json", wl.name, *seed))
		if err := writeChromeTrace(path, traced); err != nil {
			fail("span file: %v", err)
		} else {
			fmt.Fprintf(stdout, "spans: %s\n", path)
		}
		for _, m := range append(e2e, p95) {
			fmt.Fprintf(stdout, "untraced %-28s %14.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(stdout, "%-37s %14.6g %s (%d of %d steps)\n", "error_rate", errRate, "ratio", res.Failed, res.Attempted)
	for _, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fail("metric %s is %v", m.Name, m.Value)
			m.Value = 0
		}
		res.Metrics[m.Name] = m
		fmt.Fprintf(stdout, "%-37s %14.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, p := range res.Problems {
		fmt.Fprintf(stdout, "FAIL %s\n", p)
	}
	if err := writeResult(workdir, wl.name, *seed, *traceMode, res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: result file: %v\n", err)
	}
	line, _ = json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// runSummary is one run's progress line.
func runSummary(wl *workload, sp *fleetSpec, r *rep) string {
	if r.err != nil {
		return fmt.Sprintf("error: %v", r.err)
	}
	cs := cycles(sp, r)
	var total time.Duration
	for _, c := range cs {
		total += c
	}
	s := fmt.Sprintf("setup=%.3fs", r.returns[0].Sub(r.start).Seconds())
	if total > 0 {
		s += fmt.Sprintf(" steps/s=%.2f", float64(len(cs))/total.Seconds())
	}
	s += fmt.Sprintf(" final_loss=%.10g", lastLoss(r))
	if wl.threshold > 0 {
		s += fmt.Sprintf(" loss≤%v at step %d", wl.threshold, crossingStep(r.records, wl.threshold))
	}
	return s
}

func writeResult(dir, name string, seed int64, traceMode int, res result) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, traceMode))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
