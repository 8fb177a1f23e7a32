package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	caar "caar"
	"caar/obs"
)

// tracedSegments is how many segments the traced run alternates between
// tracing off and on, starting off; the pair difference is the tracing
// overhead.
const tracedSegments = 4

// tracedRun gives the per-layer metrics: the fixed-rate traffic with spans
// at every layer boundary, the capacity ladder, a direct engine load for
// per-call load costs, the crash-recovery timings and the single-threaded
// core replay.
func tracedRun(c config, sp *spec, dir string) (*output, error) {
	total := time.Duration(c.seconds) * time.Second
	nSeg := segmentOps(sp.rate, total/tracedSegments)
	rungDur := total / 2 / time.Duration(len(sp.ladder))
	streamOps := nSeg * tracedSegments
	for _, r := range sp.ladder {
		streamOps += segmentOps(r, rungDur)
	}
	p, err := newPlan(sp, c.seed, streamOps)
	if err != nil {
		return nil, err
	}
	load, err := directLoad(p)
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	st, err := setUp(dir, p, tr)
	if err != nil {
		return nil, err
	}
	defer st.close()
	tf, err := startTraffic(st, c.fault)
	if err != nil {
		return nil, err
	}
	defer tf.gen.close()
	lockWait := st.reg.Histogram("caar_engine_shard_lock_wait_seconds", "", nil)

	var (
		plain, traced      []float64 // due-to-response latency, ms
		plainRec           []float64 // untraced segments, by endpoint
		plainPost          []float64
		plainVis           []float64 // untraced post-to-visible lag, ms
		segs               []tracedSegment
		all                []segmentResult
		wallNs             int64
		plainCPU           time.Duration // process CPU time of the untraced segments
		plainOps           int
		lockSum, lockCount float64
	)
	for i := 0; i < tracedSegments; i++ {
		ops := p.stream[i*nSeg : (i+1)*nSeg]
		on := i%2 == 1
		prefix := ""
		if on {
			prefix = fmt.Sprintf("s%d-", i)
		}
		sum0, cnt0 := lockWait.Sum(), float64(lockWait.Count())
		tr.on.Store(on)
		t0, cpu0 := time.Now(), cpuTime()
		// Tracing stays on until the segment's writes are applied, so their
		// apply spans are recorded too.
		sr, err := tf.segment(ops, sp.rate, prefix, make([]result, len(ops)), make([]float64, len(ops)))
		tr.on.Store(false)
		if err != nil {
			return nil, err
		}
		all = append(all, sr)
		n := len(ops)
		lat := collect(0, n, func(i int) (float64, bool) { return ms(sr.res[i].fromDue()), sr.res[i].ok() })
		if !on {
			plainCPU += cpuTime() - cpu0
			plainOps += n
			plain = append(plain, lat...)
			plainRec = append(plainRec, collect(0, n, sr.latencyOf(opRecommend))...)
			plainPost = append(plainPost, collect(0, n, sr.latencyOf(opPost))...)
			plainVis = append(plainVis, collect(0, n, sr.visibleOf)...)
		} else {
			traced = append(traced, lat...)
			wallNs += time.Since(t0).Nanoseconds()
			lockSum += lockWait.Sum() - sum0
			lockCount += float64(lockWait.Count()) - cnt0
			segs = append(segs, tracedSegment{ops: ops, res: sr.res, start: sr.start, prefix: prefix})
		}
	}
	// Capacity ladder, tracing off.
	cursor := nSeg * tracedSegments
	var rungs []rungResult
	for _, rate := range sp.ladder {
		ops := p.stream[cursor : cursor+segmentOps(rate, rungDur)]
		cursor += len(ops)
		sr, err := tf.segment(ops, rate, "", make([]result, len(ops)), make([]float64, len(ops)))
		if err != nil {
			return nil, err
		}
		all = append(all, sr)
		r := evaluateRung(sr, rate, sp.p50LimitMs)
		fmt.Fprintf(os.Stderr, "ladder %6.0f ops/s: median %.3f ms (%d ops), pass %v %s\n", r.rate, r.p50Ms, r.n, r.pass, r.why)
		rungs = append(rungs, r)
	}
	tf.gen.close()
	if err := st.drain(); err != nil {
		return nil, err
	}

	out := &output{Correct: true, Metrics: map[string]metric{}}
	var late []float64
	status429, status5xx := 0, 0
	for _, sr := range all {
		out.Attempted += len(sr.res)
		out.Failed += sr.failures()
		for _, r := range sr.res {
			late = append(late, ms(r.late()))
			switch {
			case r.status == 429:
				status429++
			case r.status >= 500:
				status5xx++
			}
		}
	}
	logSummary("late", summarize(late, 0.99))
	logSummary("traced", summarize(traced, 0.99))
	logSummary("untraced", summarize(plain, 0.99))
	bufferEntries := st.eng.Stats().CandidateBufferEntries
	rr, checkErr := tf.check(p, out.Failed)
	if checkErr != nil {
		out.Correct = false
		return out, checkErr
	}

	ls := analyse(tr, segs)
	if err := writeSpans(filepath.Join(filepath.Dir(dir), "spans-"+sp.name+".jsonl"), ls.records); err != nil {
		return nil, err
	}
	cr, err := coreReplay(p, p.stream)
	if err != nil {
		return nil, err
	}

	m := out.Metrics
	put := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "%s: no samples in this run, reported as 0\n", name)
			v = 0
		}
		m[name] = metric{v, unit}
	}
	p50p99 := func(prefix string, vs []float64, unit string) {
		s := summarize(vs, 0.99)
		put(prefix+"_p50", s.P50, unit)
		put(prefix+"_p99", s.Tail, unit)
	}

	// Deliver path.
	p50p99("core.deliver_us", cr.deliverUs, "us")
	put("core.deliver_ns_per_follower", cr.deliverNsPerUser, "ns")
	put("core.deliver_allocs", cr.deliverAllocs, "allocs/op")
	p50p99("caar.post_batch_us", ls.postBatchUs, "us")
	put("caar.post_batch_posts_mean", mean(ls.postBatchPosts), "posts")
	put("caar.apply_busy_frac", float64(ls.applyBusyNs)/float64(wallNs), "ratio")
	put("caar.apply_wait_us_p99", summarize(ls.applyWaitUs, 0.99).Tail, "us")
	// Read path.
	p50p99("core.topads_us", cr.topAdsUs, "us")
	put("core.topads_allocs", cr.topAdsAllocs, "allocs/op")
	p50p99("caar.recommend_us", ls.recommendUs, "us")
	put("caar.lock_wait_us_mean", lockSum/lockCount*1e6, "us")
	// HTTP overhead.
	p50p99("server.recommend_self_us", ls.serverRecSelfUs, "us")
	p50p99("server.post_self_us", ls.serverPostSelfUs, "us")
	put("server.net_us_p50", summarize(ls.netUs, 0.5).P50, "us")
	// Write path.
	p50p99("ingest.submit_us", ls.submitUs, "us")
	put("ingest.queue_wait_us_mean", mean(ls.queueWaitUs), "us")
	put("ingest.queue_full", float64(st.sub.queueFull.Load()), "count")
	p50p99("journal.append_batch_us", ls.appendUs, "us")
	put("journal.batch_entries_mean", mean(ls.appendEntries), "entries")
	put("journal.appends_per_post", float64(ls.appendCalls)/float64(ls.appendPosts), "ratio")
	// Load and restore.
	put("caar.add_user_us_first", load.userFirst, "us")
	put("caar.add_user_us_last", load.userLast, "us")
	put("caar.add_ad_us_first", load.adFirst, "us")
	put("caar.add_ad_us_last", load.adLast, "us")
	// Snapshot and replay.
	put("caar.snapshot_save_s", rr.snapshotSaveS, "s")
	put("caar.snapshot_mb", rr.snapshotMB, "MiB")
	put("caar.restore_s", rr.restoreS, "s")
	put("journal.replay_s", rr.replayS, "s")
	put("journal.replay_records_per_s", float64(rr.replayRecords)/rr.replayS, "1/s")
	put("core.buffer_entries", float64(bufferEntries), "count")
	// The traffic's end-to-end figures, from the untraced segments and the
	// capacity ladder: too spread from run to run on a shared machine to
	// bound, so reported here, unbounded.
	put("gen.capacity_ops_s", capacity(rungs, sp.p50LimitMs), "ops/s")
	put("gen.cpu_us_per_op", float64(plainCPU.Microseconds())/float64(plainOps), "us")
	put("gen.recommend_p50_ms", summarize(plainRec, 0.5).P50, "ms")
	put("gen.recommend_p99_ms", summarize(plainRec, 0.99).Tail, "ms")
	put("gen.post_ack_p50_ms", summarize(plainPost, 0.5).P50, "ms")
	put("gen.post_ack_p99_ms", summarize(plainPost, 0.99).Tail, "ms")
	put("gen.visible_p50_ms", summarize(plainVis, 0.5).P50, "ms")
	put("gen.visible_p99_ms", summarize(plainVis, 0.99).Tail, "ms")
	// Generator and trace bookkeeping.
	put("gen.late_ms_p99", summarize(late, 0.99).Tail, "ms")
	put("gen.ops_attempted", float64(out.Attempted), "count")
	put("gen.ops_failed", float64(out.Failed), "count")
	put("server.status_429", float64(status429), "count")
	put("server.status_5xx", float64(status5xx), "count")
	put("trace.unattributed_frac_recommend", frac(ls.unattributed[opRecommend], ls.e2e[opRecommend]), "ratio")
	put("trace.unattributed_frac_post", frac(ls.unattributed[opPost], ls.e2e[opPost]), "ratio")
	put("trace.overhead_pct", (median(traced)/median(plain)-1)*100, "%")
	return out, nil
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// loadCosts are per-call engine costs over the first and last tenth of a
// control-plane load, exposing how a call's cost grows with the directory.
type loadCosts struct {
	userFirst, userLast float64 // µs per AddUser
	adFirst, adLast     float64 // µs per AddAd
}

// directLoad loads the plan's users, follows and ads straight into an
// engine — no journal — timing every AddUser and AddAd call.
func directLoad(p *plan) (loadCosts, error) {
	var lc loadCosts
	eng, err := caar.Open(engineConfig(p.spec.shards, obs.NewRegistry()))
	if err != nil {
		return lc, err
	}
	users := make([]float64, len(p.users))
	for i, u := range p.users {
		t0 := time.Now()
		if err := eng.AddUser(u); err != nil {
			return lc, err
		}
		users[i] = us(time.Since(t0).Nanoseconds())
	}
	for _, f := range p.follows {
		if err := eng.Follow(f[0], f[1]); err != nil {
			return lc, err
		}
	}
	ads := make([]float64, len(p.ads))
	for i, a := range p.ads {
		t0 := time.Now()
		if err := eng.AddAd(a); err != nil {
			return lc, err
		}
		ads[i] = us(time.Since(t0).Nanoseconds())
	}
	tenth := func(vs []float64, last bool) float64 {
		n := max(1, len(vs)/10)
		if last {
			return mean(vs[len(vs)-n:])
		}
		return mean(vs[:n])
	}
	lc.userFirst, lc.userLast = tenth(users, false), tenth(users, true)
	lc.adFirst, lc.adLast = tenth(ads, false), tenth(ads, true)
	fmt.Fprintf(os.Stderr, "direct load: AddUser %.1f→%.1f µs, AddAd %.1f→%.1f µs\n",
		lc.userFirst, lc.userLast, lc.adFirst, lc.adLast)
	return lc, nil
}
