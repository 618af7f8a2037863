package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"isgc/internal/trace"
)

// constantRep is a run that satisfies the model.Constant output checks.
func constantRep(sp *fleetSpec, frac float64, folded int) *rep {
	params := make([]float64, sp.model.Dim())
	for i := range params {
		params[i] = closedFormValue(sp)
	}
	r := &rep{params: params, restored: append([]float64(nil), params...)}
	for t := 0; t < sp.steps; t++ {
		r.records = append(r.records, trace.StepRecord{Step: t, RecoveredFraction: frac, Folded: folded})
	}
	return r
}

func TestOutputChecksFailOnWrongOutputs(t *testing.T) {
	wide, err := wideGather(1)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := pipelinedDurable(1)
	if err != nil {
		t.Fatal(err)
	}
	mlp, err := mlpTrain(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkWideGather(wide, []*rep{constantRep(wide, 1, 0)}); err != nil {
		t.Fatalf("a correct wide-gather run fails its check: %v", err)
	}
	if err := checkPipelinedDurable(pipe, []*rep{constantRep(pipe, 7.0/8, 1)}); err != nil {
		t.Fatalf("a correct pipelined-durable run fails its check: %v", err)
	}
	mlpRep := func(final float64) *rep {
		return &rep{records: []trace.StepRecord{{Loss: 1}, {Loss: mlpThreshold / 2}, {Loss: final}}}
	}
	if err := checkMLPTrain(mlp, []*rep{mlpRep(0.1), mlpRep(0.1 * (1 + 1e-12))}); err != nil {
		t.Fatalf("agreeing mlp-train runs fail their check: %v", err)
	}

	bad := []struct {
		name string
		err  error
	}{
		{"wide-gather param off the closed form", func() error {
			r := constantRep(wide, 1, 0)
			r.params[7] *= 1.001
			return checkWideGather(wide, []*rep{r})
		}()},
		{"wide-gather partial recovery", checkWideGather(wide, []*rep{constantRep(wide, 7.0/8, 0)})},
		{"mlp-train loss never reaches the threshold", checkMLPTrain(mlp, []*rep{{records: []trace.StepRecord{{Loss: 1}, {Loss: 2 * mlpThreshold}}}})},
		{"mlp-train runs disagree", checkMLPTrain(mlp, []*rep{mlpRep(0.1), mlpRep(0.1 * (1 + 1e-6))})},
		{"pipelined-durable folds nothing", checkPipelinedDurable(pipe, []*rep{constantRep(pipe, 7.0/8, 0)})},
		{"pipelined-durable recovers too little", checkPipelinedDurable(pipe, []*rep{constantRep(pipe, 6.0/8, 1)})},
		{"pipelined-durable restore differs", func() error {
			r := constantRep(pipe, 7.0/8, 1)
			r.restored[3] = 0
			return checkPipelinedDurable(pipe, []*rep{r})
		}()},
	}
	for _, b := range bad {
		if b.err == nil {
			t.Errorf("%s: check passed", b.name)
		}
	}
}

func TestUnionOutsideCountsConcurrentSpansOnce(t *testing.T) {
	t0 := time.Unix(100, 0)
	at := func(a, b int) span {
		return span{start: t0.Add(time.Duration(a) * time.Millisecond), end: t0.Add(time.Duration(b) * time.Millisecond)}
	}
	// Two loss shards running side by side over [0, 10) and [2, 12) cover
	// 12 ms of wall time; a gather over [8, 20) hides 4 of them.
	if got := unionOutside([]span{at(2, 12), at(0, 10)}, at(8, 20)); got != 8*time.Millisecond {
		t.Fatalf("union outside the gather = %v, want 8ms", got)
	}
	if got := unionOutside([]span{at(0, 3), at(5, 6)}, span{}); got != 4*time.Millisecond {
		t.Fatalf("union of disjoint spans = %v, want 4ms", got)
	}
}

func TestCompareRefusesDifferentShapes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, sh shape, v float64) string {
		res := result{Correct: true, Shape: &sh, Metrics: map[string]metric{"steps_per_s": {Value: v, Unit: "1/s"}}}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := *machineShape("wide-gather", 1, 0)
	other := base
	other.NumCPU++
	a := write("a.json", base, 10)
	b := write("b.json", base, 11)
	c := write("c.json", other, 11)
	var out bytes.Buffer
	if code := compare([]string{a, b}, &out); code != 0 || !strings.Contains(out.String(), "+10.0%") {
		t.Fatalf("same shapes: exit %d, output %q", code, out.String())
	}
	out.Reset()
	if code := compare([]string{a, c}, &out); code == 0 {
		t.Fatalf("different num_cpu compared: %q", out.String())
	}
}

// The command prints exactly the metrics BENCHMARK.json declares: the
// end-to-end list with --trace 0, the per-layer list with --trace 1.
func TestMetricsMatchBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	sp, err := wideGather(1)
	if err != nil {
		t.Fatal(err)
	}
	e2e, _ := endToEnd(workloads[0], sp, nil, nil)
	layers, _ := perLayer(sp, nil, nil, wireCost{})
	for _, tc := range []struct {
		name string
		decl []struct{ Name, Unit string }
		got  []metric
	}{{"end_to_end", decl.EndToEnd, e2e}, {"per_layer", decl.PerLayer, layers}} {
		if len(tc.got) != len(tc.decl) {
			t.Errorf("%s: command prints %d metrics, BENCHMARK.json declares %d", tc.name, len(tc.got), len(tc.decl))
			continue
		}
		for i, m := range tc.got {
			if m.Name != tc.decl[i].Name || m.Unit != tc.decl[i].Unit {
				t.Errorf("%s[%d]: command prints %s (%s), BENCHMARK.json declares %s (%s)", tc.name, i, m.Name, m.Unit, tc.decl[i].Name, tc.decl[i].Unit)
			}
		}
	}
}

func TestEquidistantClustersCentersAndMeans(t *testing.T) {
	const dist = 2.5
	d, err := equidistantClusters(64, 16, 4, dist, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	means := make([][]float64, 4)
	counts := make([]int, 4)
	for i := 0; i < d.Len(); i++ {
		s := d.At(i)
		k := int(s.Y)
		if means[k] == nil {
			means[k] = make([]float64, len(s.X))
		}
		for j, x := range s.X {
			means[k][j] += x
		}
		counts[k]++
	}
	for k := range means {
		for j := range means[k] {
			means[k][j] /= float64(counts[k])
		}
	}
	// Antithetic noise cancels in each class mean, so the means are the
	// centers, all dist apart.
	for a := 0; a < 4; a++ {
		for b := a + 1; b < 4; b++ {
			sq := 0.0
			for j := range means[a] {
				diff := means[a][j] - means[b][j]
				sq += diff * diff
			}
			if math.Abs(math.Sqrt(sq)-dist) > 1e-9 {
				t.Errorf("class means %d and %d are %v apart, want %v", a, b, math.Sqrt(sq), dist)
			}
		}
	}
	if _, err := equidistantClusters(63, 16, 4, dist, 0.5, 9); err == nil {
		t.Error("accepted a sample count that is not a multiple of 2·classes")
	}
}
