package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

// shape is the machine and input a result was measured on. Two results
// are comparable only when their shapes are equal: a different CPU count
// or Go version moves the numbers more than most changes do.
type shape struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func machineShape(workload string, seed int64, traceMode int) *shape {
	return &shape{
		Workload:   workload,
		Seed:       seed,
		Trace:      traceMode,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// cpuModel is the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// compare prints the metrics two result files share, side by side, and
// refuses (exit 2) when their shapes differ.
func compare(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base result.json> <new result.json>")
		return 2
	}
	var rs [2]result
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &rs[i])
		}
		if err == nil && rs[i].Shape == nil {
			err = fmt.Errorf("no shape recorded")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", path, err)
			return 2
		}
	}
	if *rs[0].Shape != *rs[1].Shape {
		a, _ := json.Marshal(rs[0].Shape)
		b, _ := json.Marshal(rs[1].Shape)
		fmt.Fprintf(os.Stderr, "perfbench: refusing to compare results of different shapes:\n  %s\n  %s\n", a, b)
		return 2
	}
	names := make([]string, 0, len(rs[0].Metrics))
	for name := range rs[0].Metrics {
		if _, ok := rs[1].Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(stdout, "%-32s %14s %14s %9s\n", "metric", "base", "new", "change")
	for _, name := range names {
		a, b := rs[0].Metrics[name], rs[1].Metrics[name]
		change := "-"
		if a.Value != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(b.Value-a.Value)/a.Value)
		}
		fmt.Fprintf(stdout, "%-32s %14.6g %14.6g %9s %s\n", name, a.Value, b.Value, change, a.Unit)
	}
	return 0
}
