// Command canonbench is the repository's canonical benchmark. It builds,
// in-process, the stack cmd/adserver builds with its default flags and a
// journal (CAP engine, -fsync always journal, batched ingest, HTTP server),
// loads a seeded workload through it and drives it over loopback HTTP with
// an open-loop generator.
//
//	canonbench --workload feed-read --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics: set-up time, memory and crash
// recovery time; the traffic's latencies from due time (recommend, post
// ack, and freshness: post to visible in every shard) and its CPU time per
// operation go to standard error. --trace 1 runs the same workload with a
// span at every layer boundary, then a capacity ladder, and prints the
// per-layer metrics instead.
// Every run checks the served results against an exhaustive-scan oracle
// rebuilt from the journal, checks that every acked post was applied
// exactly once, and checks that crash recovery restores the pre-crash
// engine; a failed check makes the run fail. The last line of standard
// output is the result as JSON.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "workload: feed-read or celebrity-write")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "traffic seconds per run")
	traceOn := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	workdir := flag.String("workdir", ".bench_build/run", "scratch directory for the journal and snapshot")
	flag.Parse()

	runtime.GOMAXPROCS(runtime.NumCPU())
	out, err := runBench(config{
		workload: *workloadName, seed: *seed, seconds: *seconds, traced: *traceOn == 1,
		workdir: *workdir,
	})
	if out != nil {
		line, jerr := json.Marshal(out)
		if jerr != nil {
			fmt.Fprintln(os.Stderr, "canonbench:", jerr)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "canonbench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	workdir  string
	fault    string // "drop-post": ingest swallows one acked post (tests only)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupRepeats is how many times a run sets the stack up; setup_s is the
// median.
const setupRepeats = 3

// runBench runs one workload. A non-nil output with a nil error is a
// passing run; a failed correctness check returns both, with Correct false.
func runBench(c config) (*output, error) {
	sp, err := specByName(c.workload)
	if err != nil {
		return nil, err
	}
	if c.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if c.fault != "" && c.fault != "drop-post" {
		return nil, fmt.Errorf("unknown fault %q", c.fault)
	}
	dir, err := filepath.Abs(filepath.Join(c.workdir, sp.name))
	if err != nil {
		return nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if c.traced {
		return tracedRun(c, sp, dir)
	}
	return e2eRun(c, sp, dir)
}

// segmentOps is how many operations a segment of d at rate offers.
func segmentOps(rate float64, d time.Duration) int {
	return int(math.Ceil(rate * d.Seconds()))
}

// e2eRun measures the end-to-end metrics with no tracing: set-up, one
// fixed-rate segment, then the checks and crash recovery.
func e2eRun(c config, sp *spec, dir string) (*output, error) {
	n := segmentOps(sp.rate, time.Duration(c.seconds)*time.Second)
	p, err := newPlan(sp, c.seed, n)
	if err != nil {
		return nil, err
	}
	res := make([]result, n)
	vis := make([]float64, n)
	heapBase := liveHeap()

	var st *stack
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		freshHeap()
		t0 := time.Now()
		if st, err = setUp(dir, p, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer st.close()

	tf, err := startTraffic(st, c.fault)
	if err != nil {
		return nil, err
	}
	defer tf.gen.close()
	cpu0 := cpuTime()
	fixed, err := tf.segment(p.stream, sp.rate, "", res, vis)
	if err != nil {
		return nil, err
	}
	cpuUs := float64((cpuTime() - cpu0).Microseconds()) / float64(n)
	tf.gen.close()
	if err := st.drain(); err != nil {
		return nil, err
	}

	out := &output{Correct: true, Metrics: map[string]metric{}}
	out.Attempted, out.Failed = len(fixed.res), fixed.failures()
	heapMB := float64(liveHeap()-heapBase) / (1 << 20)
	runtime.KeepAlive(p)

	rr, checkErr := tf.check(p, out.Failed)
	if checkErr != nil {
		out.Correct = false
		return out, checkErr
	}

	// The traffic's latency and CPU cost swing from run to run on a shared
	// machine by more than any bound allows; they are printed here and
	// reported, unbounded, by the traced run.
	fmt.Fprintf(os.Stderr, "cpu_us_per_op %.1f\n", cpuUs)
	for _, sr := range []struct {
		name  string
		value func(int) (float64, bool)
	}{
		{"recommend", fixed.latencyOf(opRecommend)},
		{"post_ack", fixed.latencyOf(opPost)},
		{"visible", fixed.visibleOf},
	} {
		// One window per second of traffic.
		p50s, tails, n, q := windowStats(fixed, c.seconds, sr.value)
		p50 := quiet(p50s)
		fmt.Fprintf(os.Stderr, "%-10s n=%d p50=%.3f ms tail=%.3f ms (p50: lower decile of %d one-second window medians, whose median is %.3f ms; tail: median of the window tails, each at least p%.1f)\n",
			sr.name, n, p50, median(tails), c.seconds, median(p50s), q*100)
	}
	m := out.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["heap_mb"] = metric{heapMB, "MiB"}
	m["recover_s"] = metric{rr.recoverS, "s"}
	return out, nil
}

// traffic drives a serving stack with the generator and keeps the counts
// the conservation check compares.
type traffic struct {
	st         *stack
	gen        *generator
	delivered0 uint64 // Stats().PostsDelivered before the traffic
	stamped0   int64  // posts stamped as applied before the traffic
	acked      int64  // posts acked to the generator
}

// startTraffic serves the stack over loopback and takes the baselines of
// the conservation check. fault "drop-post" makes ingest swallow the next
// acked post.
func startTraffic(st *stack, fault string) (*traffic, error) {
	base, err := st.serve()
	if err != nil {
		return nil, err
	}
	st.stamp.takeStamps()
	t := &traffic{st: st, gen: newGenerator(base), delivered0: st.eng.Stats().PostsDelivered, stamped0: st.stamp.posts.Load()}
	if fault == "drop-post" {
		st.stamp.dropPost.Store(true)
	}
	return t, nil
}

// segment sends ops at rate, waits until their writes are applied and
// matches the visibility stamps. res and vis receive one entry per op.
func (t *traffic) segment(ops []op, rate float64, prefix string, res []result, vis []float64) (segmentResult, error) {
	sr := segmentResult{ops: ops, res: res, visibleMs: vis}
	sr.start = t.gen.run(ops, rate, prefix, res)
	t.acked += sr.ackedPosts()
	err := waitFor(func() bool { return t.st.stamp.posts.Load()-t.stamped0 >= t.acked }, 30*time.Second)
	visibleLags(sr, t.st.stamp.takeStamps())
	return sr, err
}

// check runs the correctness checks on the drained stack — no failed
// operation, post conservation, the oracle — then the crash-recovery
// sequence, which checks the recovered engine.
func (t *traffic) check(p *plan, failed int) (restartResult, error) {
	if failed > 0 {
		return restartResult{}, fmt.Errorf("%d operations failed", failed)
	}
	stamped := t.st.stamp.posts.Load() - t.stamped0
	delivered := int64(t.st.eng.Stats().PostsDelivered - t.delivered0)
	if err := conservationCheck(t.acked, stamped, delivered); err != nil {
		return restartResult{}, err
	}
	if err := oracleCheck(t.st.eng, t.st.jpath, p.sample, p.end); err != nil {
		return restartResult{}, err
	}
	return restart(t.st, p)
}

// setUp opens the stack, journals the control-plane load and warms the
// feed windows: the set-up time a fresh deployment pays.
func setUp(dir string, p *plan, tr *tracer) (*stack, error) {
	st, err := openStack(dir, p.spec.shards, tr)
	if err != nil {
		return nil, err
	}
	if err := st.load(p); err != nil {
		st.close()
		return nil, err
	}
	if err := st.warm(p); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// freshHeap collects the heap and returns its free memory to the operating
// system, so a timed set-up or recovery starts, as in a new process, with
// no freed memory to reuse, whatever ran before it.
func freshHeap() { debug.FreeOSMemory() }

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func logSummary(name string, s summary) {
	fmt.Fprintf(os.Stderr, "%-10s n=%d p50=%.3f ms p%.2f=%.3f ms mean=%.3f ms\n", name, s.N, s.P50, s.TailQ*100, s.Tail, s.Mean)
}

func itoa(i int) string { return strconv.Itoa(i) }
