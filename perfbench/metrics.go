package main

import (
	"math"
	"sort"
	"syscall"
	"time"

	"isgc/internal/trace"
)

// metric is one named number with its unit, as printed and as the result
// line carries it.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

const mb = 1e6

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the linear-interpolation quantile of xs (sorted in place);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// crossingStep is the index of the first record whose loss is ≤ thr, or
// -1 when none is.
func crossingStep(recs []trace.StepRecord, thr float64) int {
	for i, r := range recs {
		if r.Loss <= thr {
			return i
		}
	}
	return -1
}

func lastLoss(r *rep) float64 {
	if len(r.records) == 0 {
		return math.NaN()
	}
	return r.records[len(r.records)-1].Loss
}

// cycles returns the steady-state step cycles of one run: the time
// between consecutive Recover returns, leaving out step 0 (set-up) and
// the warm-up steps.
func cycles(sp *fleetSpec, r *rep) []time.Duration {
	var out []time.Duration
	for t := sp.warmup + 1; t < len(r.returns); t++ {
		out = append(out, r.returns[t].Sub(r.returns[t-1]))
	}
	return out
}

// failedSteps counts a run's degraded steps, plus every step it never
// finished when it errored.
func failedSteps(sp *fleetSpec, r *rep) int {
	failed := 0
	for _, rec := range r.records {
		if rec.Degraded {
			failed++
		}
	}
	if r.err != nil {
		failed += sp.steps - len(r.records)
	}
	return failed
}

func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / mb // Linux reports KiB
}

// endToEnd computes the user-visible metrics over the untraced runs;
// setups holds the set-up times of extra one-step runs. The p95 step
// cycle comes back apart from the rest: it is printed and kept in the
// result file but carries no bound, because bursts of host contention
// move it between runs by up to a quarter (README.md).
func endToEnd(wl *workload, sp *fleetSpec, reps []*rep, setups []float64) (bounded []metric, p95 metric) {
	setup := append([]float64(nil), setups...)
	var ttl, final, steps []float64
	var total time.Duration
	var recovered float64
	var nrec int
	var alloc uint64
	var allocSteps int
	for _, r := range reps {
		if len(r.returns) == 0 {
			continue
		}
		setup = append(setup, r.returns[0].Sub(r.start).Seconds())
		for _, c := range cycles(sp, r) {
			steps = append(steps, ms(c))
			total += c
		}
		target := len(r.returns) - 1
		if wl.threshold > 0 {
			target = crossingStep(r.records, wl.threshold)
		}
		if target >= 0 && target < len(r.returns) {
			ttl = append(ttl, r.returns[target].Sub(r.start).Seconds())
		}
		final = append(final, lastLoss(r))
		for _, rec := range r.records {
			recovered += rec.RecoveredFraction
			nrec++
		}
		if r.memEnd.TotalAlloc > 0 {
			alloc += r.memEnd.TotalAlloc - r.memWarm.TotalAlloc
			allocSteps += sp.steps - 1 - sp.warmup
		}
	}
	sps := 0.0
	if total > 0 {
		sps = float64(len(steps)) / total.Seconds()
	}
	p95 = metric{"step_ms.p95", quantile(steps, 0.95), "ms"}
	return []metric{
		{"setup_s", median(setup), "s"},
		{"steps_per_s", sps, "1/s"},
		{"step_ms.p50", quantile(steps, 0.5), "ms"},
		{"time_to_loss_s", median(ttl), "s"},
		{"final_loss", median(final), "loss"},
		{"recovered_fraction", recovered / math.Max(float64(nrec), 1), "ratio"},
		{"alloc_mb_per_step", float64(alloc) / mb / math.Max(float64(allocSteps), 1), "MB"},
		{"max_rss_mb", maxRSSMB(), "MB"},
	}, p95
}

// stepTimes is one traced step's decomposition of its cycle.
type stepTimes struct {
	cycle, gather, recover, lossOutside time.Duration
}

func (s stepTimes) other() time.Duration { return s.cycle - s.gather - s.recover - s.lossOutside }

// assignSteps sets each span's step to the cycle its start falls in —
// cycle t runs from step t−1's Recover return to step t's, cycle 0 from
// NewMaster — and returns the derived gather span of each step, which
// ends where its Recover call starts and lasts StepRecord.Elapsed.
func assignSteps(r *rep) []span {
	bounds := r.returns
	var recovers []span
	for i := range r.spans {
		s := &r.spans[i]
		s.step = sort.Search(len(bounds), func(t int) bool { return bounds[t].After(s.start) })
		if s.name == "recover" {
			recovers = append(recovers, *s)
		}
	}
	sort.Slice(recovers, func(i, j int) bool { return recovers[i].start.Before(recovers[j].start) })
	gathers := make([]span, 0, len(recovers))
	for t, rc := range recovers {
		if t >= len(r.records) {
			break
		}
		g := span{name: "gather", start: rc.start.Add(-r.records[t].Elapsed), end: rc.start, step: t, parent: "step"}
		gathers = append(gathers, g)
	}
	for i := range r.spans {
		s := &r.spans[i]
		s.parent = "step"
		if s.track == 0 && s.step < len(gathers) && !s.start.Before(gathers[s.step].start) && !s.end.After(gathers[s.step].end) {
			s.parent = "gather"
		}
	}
	return gathers
}

// decompose splits each step cycle of a traced run into gather, Recover,
// and the master's loss evaluation outside the gather window (the
// pipelined loop evaluates it inside). Loss calls run concurrently on the
// master's pool, so their wall-clock union counts.
func decompose(r *rep, gathers []span) []stepTimes {
	out := make([]stepTimes, len(r.returns))
	prev := r.start
	for t := range out {
		out[t].cycle = r.returns[t].Sub(prev)
		prev = r.returns[t]
		if t < len(gathers) {
			out[t].gather = gathers[t].dur()
		}
	}
	loss := make([][]span, len(out))
	for _, s := range r.spans {
		if s.step >= len(out) || s.track != 0 {
			continue
		}
		switch s.name {
		case "recover":
			out[s.step].recover += s.dur()
		case "model.loss":
			loss[s.step] = append(loss[s.step], s)
		}
	}
	for t, ls := range loss {
		var g span
		if t < len(gathers) {
			g = gathers[t]
		}
		out[t].lossOutside = unionOutside(ls, g)
	}
	return out
}

// unionOutside is the length of the union of spans that lies outside g.
func unionOutside(spans []span, g span) time.Duration {
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	var total time.Duration
	var cur span
	flush := func() {
		if cur.end.After(cur.start) {
			total += cur.dur() - overlap(cur, g)
		}
	}
	for i, s := range spans {
		if i > 0 && !s.start.After(cur.end) {
			if s.end.After(cur.end) {
				cur.end = s.end
			}
			continue
		}
		flush()
		cur = s
	}
	flush()
	return total
}

func overlap(a, b span) time.Duration {
	start, end := a.start, a.end
	if b.start.After(start) {
		start = b.start
	}
	if b.end.Before(end) {
		end = b.end
	}
	if end.After(start) {
		return end.Sub(start)
	}
	return 0
}
