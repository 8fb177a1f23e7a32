package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/journal"
	"caar/obs"
)

// recoveries is how many times one run times crash recovery; recover_s is
// their lower decile (see quietQuantile).
const recoveries = 7

// restartResult holds the crash-recovery timings of one run.
type restartResult struct {
	snapshotSaveS float64
	snapshotMB    float64
	restoreS      float64 // LoadSnapshot alone, clean restart
	recoverS      float64 // LoadSnapshot + journal.Recover after the crash
	replayS       float64 // journal.Recover part of the recoveries
	replayRecords int
}

// restart runs the crash-recovery sequence on a drained stack: a clean
// shutdown as adserver does it (snapshot, then journal reset), a restore,
// a fixed journaled tail pushed through ingest one write at a time, then a
// crash — the engine is abandoned — and a timed recovery from snapshot plus
// journal. The recovered engine must match the pre-crash engine's top-k for
// the user sample and its invariants.
func restart(s *stack, p *plan) (restartResult, error) {
	var rr restartResult
	snap := filepath.Join(filepath.Dir(s.jpath), "snapshot.json")

	t0 := time.Now()
	if err := s.eng.SaveSnapshot(snap); err != nil {
		return rr, fmt.Errorf("snapshot: %w", err)
	}
	rr.snapshotSaveS = time.Since(t0).Seconds()
	fi, err := os.Stat(snap)
	if err != nil {
		return rr, err
	}
	rr.snapshotMB = float64(fi.Size()) / (1 << 20)
	if err := journal.Reset(s.jf); err != nil {
		return rr, err
	}

	t0 = time.Now()
	eng, _, err := caar.LoadSnapshot(engineConfig(p.spec.shards, obs.NewRegistry()), snap)
	if err != nil {
		return rr, fmt.Errorf("restore: %w", err)
	}
	rr.restoreS = time.Since(t0).Seconds()

	jw := journal.NewFileWriter(s.jf, journal.SyncAlways, fsyncInterval)
	stamp := &stampEngine{inner: eng}
	ing := ingest.New(stamp, jw, obs.NewRegistry(), ingest.Config{QueueSize: ingestQueue, MaxBatch: ingestBatch})
	err = submitAll(ing, p.tail, 1, stamp.entries.Load)
	if cerr := ing.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return rr, fmt.Errorf("restart tail: %w", err)
	}
	if err := jw.Flush(); err != nil {
		return rr, err
	}
	want, err := topK(eng, p.sample, p.end)
	if err != nil {
		return rr, err
	}
	wantInv := eng.Invariants()
	eng = nil // crash: the pre-crash engine is never used again

	var recs, replays []float64
	for i := 0; i < recoveries; i++ {
		freshHeap()
		t0 = time.Now()
		rec, _, err := caar.LoadSnapshot(engineConfig(p.spec.shards, obs.NewRegistry()), snap)
		if err != nil {
			return rr, fmt.Errorf("recover snapshot: %w", err)
		}
		t1 := time.Now()
		stats, err := journal.Recover(s.jf, rec)
		if err != nil {
			return rr, fmt.Errorf("recover journal: %w", err)
		}
		done := time.Now()
		if stats.Skipped > 0 || stats.Torn {
			return rr, fmt.Errorf("recovery skipped %d records (torn %v): %v", stats.Skipped, stats.Torn, stats.SkipErrors)
		}
		recs = append(recs, done.Sub(t0).Seconds())
		replays = append(replays, done.Sub(t1).Seconds())
		rr.replayRecords = stats.Applied

		got, err := topK(rec, p.sample, p.end)
		if err != nil {
			return rr, err
		}
		if err := compareAll(p.sample, got, want); err != nil {
			return rr, fmt.Errorf("recovered engine differs from pre-crash engine: %w", err)
		}
		if err := compareInvariants(rec.Invariants(), wantInv); err != nil {
			return rr, err
		}
	}
	fmt.Fprintf(os.Stderr, "recoveries: %.3f s (replay %.3f s)\n", recs, replays)
	rr.recoverS = quiet(recs)
	rr.replayS = quiet(replays)
	return rr, nil
}
