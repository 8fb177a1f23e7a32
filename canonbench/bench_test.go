package main

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	caar "caar"
	"caar/internal/server"
	"caar/journal"
)

func TestSameSeedSameSchedule(t *testing.T) {
	sp, err := specByName("celebrity-write")
	if err != nil {
		t.Fatal(err)
	}
	a, err := newPlan(sp, 7, 400)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newPlan(sp, 7, 400)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newPlan(sp, 8, 400)
	if err != nil {
		t.Fatal(err)
	}
	flat := func(p *plan) []any {
		return []any{p.users, p.follows, p.ads, p.warm, p.stream, p.tail, p.sample, p.end}
	}
	if !reflect.DeepEqual(flat(a), flat(b)) {
		t.Fatal("the same seed gave different schedules")
	}
	if reflect.DeepEqual(a.stream, c.stream) {
		t.Fatal("different seeds gave the same traffic")
	}
	if len(a.stream) != 400 || len(a.warm) == 0 || len(a.tail) != sp.tailEvents || len(a.sample) != oracleSample {
		t.Fatalf("plan sizes: stream %d warm %d tail %d sample %d", len(a.stream), len(a.warm), len(a.tail), len(a.sample))
	}
}

// A stalled handler must charge the requests queued behind it from their
// due time, and the generator must report that it ran late.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	g := newGenerator(srv.URL)
	defer g.close()
	ops := make([]op, 40)
	for i := range ops {
		ops[i] = recommendOp("u", time.Time{})
	}
	res := make([]result, len(ops))
	g.run(ops, 1000, "", res)
	stalled := 0
	for i, r := range res {
		if !r.ok() {
			t.Fatalf("op %d: status %d", i, r.status)
		}
		if r.late() > 10*time.Millisecond {
			stalled++
			if service := r.done - r.send; r.fromDue() < r.late()+service {
				t.Fatalf("op %d: latency %v does not count from due time (late %v)", i, r.fromDue(), r.late())
			}
		}
	}
	// The stalled request's sender was 1 ms per op behind for ~60 ops' worth
	// of schedule; with ops spread over the senders, several queued.
	if stalled < 5 {
		t.Fatalf("only %d requests reported late behind a %v stall", stalled, stall)
	}
	late := make([]float64, len(res))
	for i, r := range res {
		late[i] = ms(r.late())
	}
	if s := summarize(late, 0.99); s.Tail < 30 {
		t.Fatalf("lateness tail %.1f ms hides a %v stall", s.Tail, stall)
	}
}

func TestTailRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{5, 1}, {10, 1}, {100, 0.9}, {500, 0.98}, {1000, 0.99}, {50000, 0.99}} {
		if got := tailRank(tc.n, 0.99); got != tc.want {
			t.Errorf("tailRank(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	vs := make([]float64, 1000)
	for i := range vs {
		vs[len(vs)-1-i] = float64(i + 1)
	}
	s := summarize(vs, 0.99)
	if s.N != 1000 || s.P50 != 500 || s.Tail != 990 {
		t.Fatalf("summary %+v, want n 1000, p50 500, p99 990", s)
	}
	// At least ten samples lie beyond the reported tail.
	s = summarize(vs[:200], 0.99)
	beyond := 0
	for _, v := range vs[:200] {
		if v > s.Tail {
			beyond++
		}
	}
	if beyond < minTail {
		t.Fatalf("%d samples beyond the p%.1f tail, want %d", beyond, s.TailQ*100, minTail)
	}
}

// The figure picked from repeated measurements is their lower decile: the
// second lowest of twenty one-second windows, the lowest of seven
// recoveries.
func TestQuietIsLowerDecile(t *testing.T) {
	windows := []float64{9, 3, 14, 20, 1, 7, 12, 5, 18, 2, 16, 11, 4, 19, 8, 15, 6, 13, 10, 17}
	if got := quiet(windows); got != 2 {
		t.Errorf("quiet of 20 windows = %v, want 2", got)
	}
	if got := quiet([]float64{0.9, 0.7, 1.2, 0.8, 0.75, 1.1, 0.95}); got != 0.7 {
		t.Errorf("quiet of 7 recoveries = %v, want 0.7", got)
	}
	if windows[0] != 9 {
		t.Error("quiet reordered its input")
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	children := []interval{{10, 40}, {30, 60}, {80, 120}, {-20, 5}}
	// Covered: [0,5) + [10,60) + [80,100) = 5 + 50 + 20.
	if got := selfTime(parent, children); got != 25 {
		t.Fatalf("self time %d, want 25", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("self time without children %d, want 100", got)
	}
	if got := selfTime(parent, []interval{{0, 100}, {20, 30}}); got != 0 {
		t.Fatalf("fully covered self time %d, want 0", got)
	}
}

// The traced API must take the same server paths as the journaled engine
// it wraps: it satisfies exactly the optional interfaces *journal.Logged
// does, and has the same method set.
func TestRecommendSpansKeepsServerInterfaces(t *testing.T) {
	wrapped := reflect.TypeOf(&recommendSpans{})
	logged := reflect.TypeOf(&journal.Logged{})
	for _, iface := range []reflect.Type{
		reflect.TypeOf((*server.API)(nil)).Elem(),
		reflect.TypeOf((*server.TraceAPI)(nil)).Elem(),
		reflect.TypeOf((*server.PolicyAPI)(nil)).Elem(),
		reflect.TypeOf((*server.HotAPI)(nil)).Elem(),
		reflect.TypeOf((*server.InvariantAPI)(nil)).Elem(),
		reflect.TypeOf((*server.HealthReporter)(nil)).Elem(),
	} {
		if wrapped.Implements(iface) != logged.Implements(iface) {
			t.Errorf("%v: wrapper implements %v, *journal.Logged %v", iface, wrapped.Implements(iface), logged.Implements(iface))
		}
	}
	names := func(t reflect.Type) []string {
		var out []string
		for i := 0; i < t.NumMethod(); i++ {
			out = append(out, t.Method(i).Name)
		}
		sort.Strings(out)
		return out
	}
	if a, b := names(wrapped), names(logged); !reflect.DeepEqual(a, b) {
		t.Errorf("method sets differ:\n wrapper %v\n logged  %v", a, b)
	}
}

func TestCompareTopK(t *testing.T) {
	r := func(id string, s float64) caar.Recommendation { return caar.Recommendation{AdID: id, Score: s} }
	oracle := []caar.Recommendation{r("a", 0.9), r("b", 0.5), r("c", 0.5), r("d", 0.3), r("e", 0.2)}
	for name, tc := range map[string]struct {
		got []caar.Recommendation
		ok  bool
	}{
		"equal":            {oracle, true},
		"ties reordered":   {[]caar.Recommendation{r("a", 0.9), r("c", 0.5), r("b", 0.5), r("d", 0.3), r("e", 0.2)}, true},
		"score off":        {[]caar.Recommendation{r("a", 0.9), r("b", 0.5), r("c", 0.5), r("d", 0.31), r("e", 0.2)}, false},
		"other ad in tie":  {[]caar.Recommendation{r("a", 0.9), r("b", 0.5), r("x", 0.5), r("d", 0.3), r("e", 0.2)}, false},
		"other ad at rank": {[]caar.Recommendation{r("x", 0.9), r("b", 0.5), r("c", 0.5), r("d", 0.3), r("e", 0.2)}, false},
		"shorter":          {oracle[:4], false},
	} {
		if err := compareTopK(tc.got, oracle, 5); (err == nil) != tc.ok {
			t.Errorf("%s: err %v, want ok %v", name, err, tc.ok)
		}
	}
	// A tie group cut off by k may hold different members.
	cut := []caar.Recommendation{r("a", 0.9), r("b", 0.5), r("c", 0.2), r("d", 0.2)}
	other := []caar.Recommendation{r("a", 0.9), r("b", 0.5), r("c", 0.2), r("z", 0.2)}
	if err := compareTopK(other, cut, 4); err != nil {
		t.Errorf("tie at the cut: %v", err)
	}
}

func TestCapacityInterpolates(t *testing.T) {
	rungs := []rungResult{
		{rate: 100, p50Ms: 5, pass: true},
		{rate: 200, p50Ms: 10, pass: true},
		{rate: 300, p50Ms: 40, pass: false},
	}
	if got := capacity(rungs, 20); got != 250 {
		t.Fatalf("capacity %v, want 250 (log-midpoint of 10 and 40 ms)", got)
	}
	rungs[2].p50Ms = 15 // failed for lateness growth, tail within the limit
	if got := capacity(rungs, 20); got != 200 {
		t.Fatalf("capacity %v, want 200 when the next step fails for another reason", got)
	}
	rungs[2].p50Ms = 40
	rungs[0].pass = false
	if got := capacity(rungs, 20); got != 250 {
		t.Fatalf("capacity %v, want 250: a transient failure below a passing step does not cap it", got)
	}
	all := []rungResult{{rate: 100, p50Ms: 1, pass: true}, {rate: 200, p50Ms: 2, pass: true}}
	if got := capacity(all, 20); got != 200 {
		t.Fatalf("capacity %v, want the top step 200", got)
	}
}

// A post acked but never applied must fail the run.
func TestDroppedPostFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the stack")
	}
	out, err := runBench(config{workload: "feed-read", seed: 3, seconds: 1, workdir: t.TempDir(), fault: "drop-post"})
	if err == nil {
		t.Fatal("a dropped post passed the checks")
	}
	if out == nil || out.Correct {
		t.Fatalf("result %+v should be marked incorrect (err %v)", out, err)
	}
	t.Log(err)
}
