package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	caar "caar"
	"caar/journal"
)

// scoreTol is how far two engines' scores for the same ad may differ.
const scoreTol = 1e-6

// compareTopK checks that two top-k lists agree: equal length, scores equal
// within scoreTol position by position, and the same ads in every group of
// equal-score ties. A tie group cut off by the end of a full list may hold
// different members, since either engine may keep any of the tied ads.
func compareTopK(got, want []caar.Recommendation, k int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].Score-want[i].Score) > scoreTol {
			return fmt.Errorf("rank %d: score %.9f (%s), oracle %.9f (%s)",
				i, got[i].Score, got[i].AdID, want[i].Score, want[i].AdID)
		}
	}
	for lo := 0; lo < len(got); {
		hi := lo + 1
		for hi < len(got) && math.Abs(got[hi].Score-got[lo].Score) <= scoreTol {
			hi++
		}
		if hi == len(got) && len(got) == k {
			break // the last tie group may continue past the cut
		}
		a, b := adIDs(got[lo:hi]), adIDs(want[lo:hi])
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("ranks %d-%d: ads %v, oracle %v", lo, hi-1, a, b)
			}
		}
		lo = hi
	}
	return nil
}

func adIDs(recs []caar.Recommendation) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.AdID
	}
	sort.Strings(out)
	return out
}

// topK reads the top-k of every sampled user at time at.
func topK(eng *caar.Engine, users []string, at time.Time) ([][]caar.Recommendation, error) {
	out := make([][]caar.Recommendation, len(users))
	for i, u := range users {
		recs, err := eng.Recommend(u, recK, at)
		if err != nil {
			return nil, fmt.Errorf("recommend %s: %w", u, err)
		}
		out[i] = recs
	}
	return out, nil
}

func compareAll(users []string, got, want [][]caar.Recommendation) error {
	for i, u := range users {
		if err := compareTopK(got[i], want[i], recK); err != nil {
			return fmt.Errorf("user %s: %w", u, err)
		}
	}
	return nil
}

// oracleCheck rebuilds an exhaustive-scan (RS, one shard) engine from the
// run's journal — control-plane load, warm-up and traffic — and requires
// the served engine to return the oracle's top-k for every sampled user.
func oracleCheck(eng *caar.Engine, journalPath string, users []string, at time.Time) error {
	cfg := caar.DefaultConfig()
	cfg.Algorithm = caar.AlgorithmRS
	cfg.DisableHotKeys = true
	rs, err := caar.Open(cfg)
	if err != nil {
		return err
	}
	f, err := os.Open(journalPath)
	if err != nil {
		return err
	}
	defer f.Close()
	stats, err := journal.Replay(f, rs)
	if err != nil {
		return fmt.Errorf("oracle replay: %w", err)
	}
	if stats.Skipped > 0 || stats.Torn {
		return fmt.Errorf("oracle replay skipped %d records (torn %v): %v", stats.Skipped, stats.Torn, stats.SkipErrors)
	}
	got, err := topK(eng, users, at)
	if err != nil {
		return err
	}
	want, err := topK(rs, users, at)
	if err != nil {
		return err
	}
	if err := compareAll(users, got, want); err != nil {
		return fmt.Errorf("oracle mismatch: %w", err)
	}
	return nil
}

// conservationCheck requires every acked post to have been applied exactly
// once: acked == stamped as applied == growth of Stats().PostsDelivered.
func conservationCheck(acked, stamped, delivered int64) error {
	if acked != stamped || stamped != delivered {
		return fmt.Errorf("post conservation: %d acked, %d stamped applied, %d delivered", acked, stamped, delivered)
	}
	return nil
}

// stableInvariants is the part of an InvariantReport that depends only on
// engine state, not on the process (heap, goroutines, trace ring).
func stableInvariants(r caar.InvariantReport) caar.InvariantReport {
	return caar.InvariantReport{
		Users: r.Users, FollowEdges: r.FollowEdges, Ads: r.Ads, Campaigns: r.Campaigns,
		PostsDelivered: r.PostsDelivered, CheckIns: r.CheckIns,
		VocabTerms: r.VocabTerms, VocabDocs: r.VocabDocs,
		CachedMessages: r.CachedMessages, WindowCapacity: r.WindowCapacity, CandidateEntries: r.CandidateEntries,
	}
}

func compareInvariants(got, want caar.InvariantReport) error {
	g, w := stableInvariants(got), stableInvariants(want)
	gs, ws := fmt.Sprintf("%+v", g), fmt.Sprintf("%+v", w)
	if gs != ws {
		return fmt.Errorf("invariants differ:\n recovered %s\n pre-crash %s", gs, ws)
	}
	return nil
}
