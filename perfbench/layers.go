package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"isgc/internal/cluster"
)

// perLayer computes the per-layer metrics over the traced runs, and the
// coverage check: in every steady step the timed layers (gather, Recover,
// the loss outside the gather) fit inside the step cycle.
func perLayer(sp *fleetSpec, traced, plain []*rep, wire wireCost) ([]metric, error) {
	var steps, gcSteps int
	var grad, loss, encode, recover time.Duration
	var cycle, gather, lossOutside, other time.Duration
	var gradCalls, lossCalls int
	var gatherMs, saveMs []float64
	var chosen, avail, folded, records, degraded, malformed, rejoins int
	var accepted, ignored int
	var compute95, arrival95 time.Duration
	var sent, subFrames, ckptWrites, ckptBytes uint64
	var gcCycles uint32
	var gcPause uint64
	var coverage error
	for k, r := range traced {
		times := decompose(r, r.gathers)
		for t := sp.warmup + 1; t < len(times); t++ {
			steps++
			cycle += times[t].cycle
			gather += times[t].gather
			lossOutside += times[t].lossOutside
			other += times[t].other()
			if times[t].other() < 0 && coverage == nil {
				coverage = fmt.Errorf("traced run %d step %d: gather %v + recover %v + loss %v exceed the %v cycle",
					k, t, times[t].gather, times[t].recover, times[t].lossOutside, times[t].cycle)
			}
			if t < len(r.records) {
				gatherMs = append(gatherMs, ms(r.records[t].Elapsed))
			}
		}
		for _, s := range r.spans {
			if s.name == "checkpoint.save" {
				saveMs = append(saveMs, ms(s.dur()))
				continue
			}
			if s.step <= sp.warmup || s.step >= len(r.returns) {
				continue
			}
			switch s.name {
			case "model.grad":
				grad += s.dur()
				gradCalls++
			case "model.loss":
				loss += s.dur()
				lossCalls++
			case "encode":
				encode += s.dur()
			case "recover":
				recover += s.dur()
			}
		}
		for _, rec := range r.records {
			records++
			chosen += rec.Chosen
			avail += rec.Available
			folded += rec.Folded
			if rec.Degraded {
				degraded++
			}
		}
		for _, w := range r.attribution.Workers {
			accepted += w.Chosen
			ignored += w.Ignored
			compute95 = max(compute95, w.ComputeP95)
			arrival95 = max(arrival95, w.ArrivalP95)
		}
		malformed += r.malformed
		rejoins += r.rejoins
		sent += r.sentBytes
		subFrames += r.subFrames
		ckptWrites += r.ckptWrites
		ckptBytes += r.ckptBytes
		if r.memEnd.NumGC > 0 {
			gcCycles += r.memEnd.NumGC - r.memWarm.NumGC
			gcPause += r.memEnd.PauseTotalNs - r.memWarm.PauseTotalNs
			gcSteps += sp.steps - 1 - sp.warmup
		}
	}
	perStep := func(d time.Duration) float64 { return ms(d) / math.Max(float64(steps), 1) }
	ratio := func(a, b int) float64 { return float64(a) / math.Max(float64(b), 1) }
	fsteps := math.Max(float64(records), 1)
	out := []metric{
		{"model.grad_ms_per_step", perStep(grad), "ms"},
		{"model.grad_calls_per_step", ratio(gradCalls, steps), "count"},
		{"model.loss_ms_per_step", perStep(loss), "ms"},
		{"model.loss_calls_per_step", ratio(lossCalls, steps), "count"},
		{"encode.ms_per_step", perStep(encode), "ms"},
		{"decode.recover_ms_per_step", perStep(recover), "ms"},
		{"decode.useful_ratio", ratio(chosen, avail), "ratio"},
		{"cluster.gather_ms.p50", quantile(gatherMs, 0.5), "ms"},
		{"cluster.gather_ms.p95", quantile(gatherMs, 0.95), "ms"},
		{"cluster.compute_ms.p95", ms(compute95), "ms"},
		{"cluster.arrival_ms.p95", ms(arrival95), "ms"},
		{"cluster.cycle_ms_per_step", perStep(cycle), "ms"},
		{"cluster.gather_ms_per_step", perStep(gather), "ms"},
		{"model.loss_outside_gather_ms_per_step", perStep(lossOutside), "ms"},
		{"cluster.other_ms_per_step", perStep(other), "ms"},
		{"cluster.ignored_ratio", ratio(ignored, accepted+ignored), "ratio"},
		{"cluster.folded_per_step", float64(folded) / fsteps, "count"},
		{"cluster.degraded_steps", float64(degraded), "count"},
		{"cluster.malformed", float64(malformed), "count"},
		{"cluster.rejoins", float64(rejoins), "count"},
		{"wire.encode_ms", wire.encodeMs, "ms"},
		{"wire.decode_ms", wire.decodeMs, "ms"},
		{"wire.encode_allocs", wire.encodeAllocs, "count"},
		{"wire.decode_allocs", wire.decodeAllocs, "count"},
		{"wire.sent_mb_per_step", float64(sent) / mb / fsteps, "MB"},
		{"wire.subframes_per_step", float64(subFrames) / fsteps, "count"},
		{"checkpoint.save_ms.p50", quantile(saveMs, 0.5), "ms"},
		{"checkpoint.save_ms.p95", quantile(saveMs, 0.95), "ms"},
		{"checkpoint.mb_per_write", float64(ckptBytes) / mb / math.Max(float64(ckptWrites), 1), "MB"},
		{"runtime.gc_cycles_per_step", float64(gcCycles) / math.Max(float64(gcSteps), 1), "count"},
		{"runtime.gc_pause_ms_per_step", float64(gcPause) / 1e6 / math.Max(float64(gcSteps), 1), "ms"},
		{"trace.overhead_pct", overheadPct(sp, traced, plain), "%"},
	}
	return out, coverage
}

// overheadPct is how much slower the traced runs stepped than the
// untraced ones, in percent of the untraced steps_per_s.
func overheadPct(sp *fleetSpec, traced, plain []*rep) float64 {
	rate := func(reps []*rep) float64 {
		var n int
		var total time.Duration
		for _, r := range reps {
			for _, c := range cycles(sp, r) {
				n++
				total += c
			}
		}
		return float64(n) / total.Seconds()
	}
	return 100 * (1 - rate(traced)/rate(plain))
}

// wireCost is one gradient at the workload's dimension through the public
// binaryv2 codec.
type wireCost struct {
	encodeMs, decodeMs         float64
	encodeAllocs, decodeAllocs float64
}

// measureWire times AppendSubFrame (into a reused buffer, as a connection's
// pooled send buffer is) and DecodeSubFrame on one whole-gradient
// sub-frame, reporting medians and allocations per call. It runs after the
// fleet has stopped, so nothing else allocates meanwhile.
func measureWire(dim int, iters int) (wireCost, error) {
	coded := make([]float64, dim)
	for i := range coded {
		coded[i] = float64(i) * 1e-3
	}
	e := &cluster.Envelope{Kind: cluster.MsgGradient, Worker: 1, Step: 1, Coded: coded, Total: dim}
	buf, err := cluster.AppendSubFrame(nil, e)
	if err != nil {
		return wireCost{}, err
	}
	var enc, dec []float64
	var before, after runtime.MemStats
	var encAllocs, decAllocs uint64
	for i := 0; i < iters; i++ {
		runtime.ReadMemStats(&before)
		start := time.Now()
		buf, err = cluster.AppendSubFrame(buf[:0], e)
		mid := time.Now()
		runtime.ReadMemStats(&after)
		if err != nil {
			return wireCost{}, err
		}
		encAllocs += after.Mallocs - before.Mallocs
		enc = append(enc, ms(mid.Sub(start)))

		runtime.ReadMemStats(&before)
		start = time.Now()
		got, err := cluster.DecodeSubFrame(buf)
		mid = time.Now()
		runtime.ReadMemStats(&after)
		if err != nil {
			return wireCost{}, err
		}
		if len(got.Coded) != dim || got.Coded[dim-1] != coded[dim-1] {
			return wireCost{}, fmt.Errorf("binaryv2 round trip changed the gradient")
		}
		decAllocs += after.Mallocs - before.Mallocs
		dec = append(dec, ms(mid.Sub(start)))
	}
	return wireCost{
		encodeMs: median(enc), decodeMs: median(dec),
		encodeAllocs: float64(encAllocs) / float64(iters), decodeAllocs: float64(decAllocs) / float64(iters),
	}, nil
}

// chromeEvent is one Chrome trace-event record ("X" = complete span,
// "M" = track-name metadata).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the traced runs' spans once, as Chrome trace
// JSON: one process per run, the master on track 0 and worker i on track
// i+1. Every span carries its step as its id and its parent's name; the
// step spans are the roots, the cycles between Recover returns.
func writeChromeTrace(path string, traced []*rep) error {
	if len(traced) == 0 {
		return nil
	}
	origin := traced[0].start
	us := func(t time.Time) float64 { return float64(t.Sub(origin).Nanoseconds()) / 1e3 }
	var evs []chromeEvent
	add := func(pid int, s span) {
		evs = append(evs, chromeEvent{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end) - us(s.start),
			Pid: pid, Tid: s.track, Args: map[string]any{"id": s.step, "parent": s.parent}})
	}
	for k, r := range traced {
		evs = append(evs, chromeEvent{Name: "process_name", Ph: "M", Pid: k, Args: map[string]any{"name": fmt.Sprintf("traced run %d", k)}})
		for tid := 0; tid <= r.workers; tid++ {
			name := "master"
			if tid > 0 {
				name = fmt.Sprintf("worker %d", tid-1)
			}
			evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: k, Tid: tid, Args: map[string]any{"name": name}})
		}
		prev := r.start
		for t, ret := range r.returns {
			name := "step"
			if t == 0 {
				name = "setup"
			}
			add(k, span{name: name, start: prev, end: ret, step: t})
			prev = ret
		}
		for _, s := range r.gathers {
			add(k, s)
		}
		for _, s := range r.spans {
			add(k, s)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
