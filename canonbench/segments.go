package main

import (
	"math"
	"sort"
	"time"
)

// segmentResult is one generator segment: its ops, their results, the
// wall-clock start, and per op the post-to-visible lag (NaN where the op is
// not an acked post).
type segmentResult struct {
	ops       []op
	res       []result
	start     time.Time
	visibleMs []float64
}

func (s segmentResult) ackedPosts() int64 {
	var n int64
	for i, o := range s.ops {
		if o.kind == opPost && s.res[i].ok() {
			n++
		}
	}
	return n
}

func (s segmentResult) failures() int {
	n := 0
	for _, r := range s.res {
		if !r.ok() {
			n++
		}
	}
	return n
}

// collect lists the values of ops [lo, hi) that count.
func collect(lo, hi int, value func(i int) (float64, bool)) []float64 {
	var out []float64
	for i := lo; i < hi; i++ {
		if v, ok := value(i); ok {
			out = append(out, v)
		}
	}
	return out
}

// rungWindows is how many equal windows a ladder step is cut into; the
// step's latency is the median over the windows of the window median, so a
// backlog that keeps growing moves most of them.
const rungWindows = 3

// quietQuantile picks one figure from repeated measurements of the same
// thing in a run: a latency from the medians of a fixed-rate segment's
// one-second windows, and recover_s from the repeated recoveries.
// Contention from the host's other tenants (CPU steal, slow wake-ups of
// idle virtual CPUs, memory bandwidth) only adds time, and it comes and goes
// from second to second; the lower decile is the figure of the run's
// quieter moments. A change in the program that slows every request or
// every recovery moves every measurement, and so this figure.
const quietQuantile = 0.1

// quiet returns the quietQuantile of vs.
func quiet(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return quantile(s, quietQuantile)
}

// windowStats cuts a segment into k equal windows of operations and
// summarises one latency series (value reports an op's value and whether it
// counts) in each: the window medians and tails, the sample count over all
// windows and the lowest tail percentile a window could report.
func windowStats(s segmentResult, k int, value func(i int) (float64, bool)) (p50s, tails []float64, n int, q float64) {
	q = 1
	per := len(s.ops) / k
	for w := 0; w < k; w++ {
		sum := summarize(collect(w*per, (w+1)*per, value), 0.99)
		p50s, tails = append(p50s, sum.P50), append(tails, sum.Tail)
		n += sum.N
		q = math.Min(q, sum.TailQ)
	}
	return p50s, tails, n, q
}

// latencyOf selects the due-to-response latency of successful ops of a kind.
func (s segmentResult) latencyOf(kind opKind) func(int) (float64, bool) {
	return func(i int) (float64, bool) {
		return ms(s.res[i].fromDue()), s.ops[i].kind == kind && s.res[i].ok()
	}
}

// visibleOf selects the post-to-visible lag of acked posts.
func (s segmentResult) visibleOf(i int) (float64, bool) {
	return s.visibleMs[i], !math.IsNaN(s.visibleMs[i])
}

// visibleLags matches the engine's apply stamps to the segment's acked
// posts and fills s.visibleMs: due time to applied in every shard, per op.
func visibleLags(s segmentResult, stamps []stamp) {
	applied := make(map[string][]time.Time, len(stamps))
	for _, st := range stamps {
		applied[st.key] = append(applied[st.key], st.at)
	}
	out := s.visibleMs
	for i, o := range s.ops {
		out[i] = math.NaN()
		if o.kind != opPost || !s.res[i].ok() {
			continue
		}
		key := postKey(o.user, o.at, o.text)
		if ts := applied[key]; len(ts) > 0 {
			out[i] = ms(ts[0].Sub(s.start.Add(s.res[i].due)))
			applied[key] = ts[1:]
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// rungResult is one capacity-ladder step.
type rungResult struct {
	rate  float64
	n     int
	p50Ms float64
	pass  bool
	why   string
}

// evaluateRung passes a ladder step when no operation failed, the
// all-operation median latency from due time (median of rungWindows window
// medians) is within the workload's limit, and neither generator lateness
// nor apply lag grew across the step (last quarter's median against the
// first quarter's, by more than half the limit). The limit is on the median
// because a queue that cannot keep up moves the median within a step, while
// the tail of a step moves with every disk or scheduler stall.
func evaluateRung(s segmentResult, rate, limitMs float64) rungResult {
	var late, vis [2][]float64
	q := len(s.ops) / 4
	for i, r := range s.res {
		part := -1
		switch {
		case i < q:
			part = 0
		case i >= len(s.ops)-q:
			part = 1
		}
		if part < 0 || !r.ok() {
			continue
		}
		late[part] = append(late[part], ms(r.late()))
		if !math.IsNaN(s.visibleMs[i]) {
			vis[part] = append(vis[part], s.visibleMs[i])
		}
	}
	p50s, _, n, _ := windowStats(s, rungWindows, func(i int) (float64, bool) {
		return ms(s.res[i].fromDue()), s.res[i].ok()
	})
	p50 := median(p50s)
	rr := rungResult{rate: rate, n: n, p50Ms: p50, pass: true}
	grew := func(h [2][]float64) bool {
		return len(h[0]) > 0 && len(h[1]) > 0 && median(h[1])-median(h[0]) > limitMs/2
	}
	switch {
	case s.failures() > 0:
		rr.pass, rr.why = false, "(failures)"
	case p50 > limitMs:
		rr.pass, rr.why = false, "(median over limit)"
	case grew(late):
		rr.pass, rr.why = false, "(lateness growing)"
	case grew(vis):
		rr.pass, rr.why = false, "(apply lag growing)"
	}
	return rr
}

// capacity is the highest passing ladder rate, refined toward the step
// above it by log-linear interpolation of the median latency to the limit,
// so the figure moves smoothly rather than in whole ladder steps. A failing
// step below a passing one was a transient stall, not the system's limit,
// and does not cap the figure. When no step passes, the first rate is
// scaled down by how far its median overshot.
func capacity(rungs []rungResult, limitMs float64) float64 {
	last := -1
	for i, r := range rungs {
		if r.pass {
			last = i
		}
	}
	if last < 0 {
		r := rungs[0]
		return r.rate * math.Min(1, limitMs/r.p50Ms)
	}
	a := rungs[last]
	if last == len(rungs)-1 {
		return a.rate
	}
	b := rungs[last+1]
	if b.p50Ms <= limitMs || b.p50Ms <= a.p50Ms || a.p50Ms <= 0 {
		return a.rate
	}
	f := (math.Log(limitMs) - math.Log(a.p50Ms)) / (math.Log(b.p50Ms) - math.Log(a.p50Ms))
	return a.rate + f*(b.rate-a.rate)
}
