package main

import (
	"runtime"
	"time"

	caar "caar"
	"caar/internal/core"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/timeslot"
)

// coreResult holds per-call costs of the CAP core, measured without the
// engine facade, locks, text pipeline or concurrency.
type coreResult struct {
	deliverUs        []float64
	deliverAllocs    float64
	deliverNsPerUser float64
	topAdsUs         []float64
	topAdsAllocs     float64
}

// coreReplay replays the run's stream in one goroutine straight into
// core.NewCAP, with the generator's term vectors instead of the text
// pipeline: Deliver for every post (to the author and followers, as the
// engine does with one shard) and TopAds for every recommend. The warm-up
// fills the windows untimed; the traffic stream is timed call by call.
// core has no boundary reachable through the server, so this is also the
// single-threaded baseline of the engine's cost.
func coreReplay(p *plan, ops []op) (coreResult, error) {
	var r coreResult
	dc := caar.DefaultConfig()
	scoring := core.Scoring{
		AlphaText: dc.AlphaText, BetaGeo: dc.BetaGeo, GammaBid: dc.GammaBid,
		Decay: timeslot.NewDecay(dc.DecayHalfLife), WindowCap: dc.WindowSize,
	}
	w := p.w
	eng, err := core.NewCAP(scoring, nil, geo.Rect(dc.Region), dc.GridRows, dc.GridCols,
		core.CAPOptions{FanoutSharing: dc.FanoutSharing, RebuildEvery: dc.RebuildEvery})
	if err != nil {
		return r, err
	}
	for _, u := range w.Users {
		eng.AddUser(u.ID)
	}
	for _, a := range w.CloneAds() {
		if w.LateAds[a.ID] {
			continue
		}
		if err := eng.AddAd(a); err != nil {
			return r, err
		}
	}

	var ms0, ms1 runtime.MemStats
	var deliverAllocs, topAllocs, followers uint64
	var deliverNs int64
	apply := func(o op, timed bool) error {
		ev := w.Events[o.ev]
		if o.kind == opCheckIn {
			return eng.CheckIn(ev.User, ev.Loc, o.at)
		}
		msg := ev.Msg
		msg.Time = o.at
		fs := append([]feed.UserID{ev.User}, w.Graph.Followers(ev.User)...)
		if !timed {
			return eng.Deliver(msg, fs)
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		err := eng.Deliver(msg, fs)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		deliverAllocs += ms1.Mallocs - ms0.Mallocs
		deliverNs += d.Nanoseconds()
		followers += uint64(len(fs))
		r.deliverUs = append(r.deliverUs, float64(d.Nanoseconds())/1e3)
		return err
	}
	for _, o := range p.warm {
		if err := apply(o, false); err != nil {
			return r, err
		}
	}
	for _, o := range ops {
		if o.kind != opRecommend {
			if err := apply(o, true); err != nil {
				return r, err
			}
			continue
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		_, err := eng.TopAds(feed.UserID(o.uid), recK, o.at)
		d := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		if err != nil {
			return r, err
		}
		topAllocs += ms1.Mallocs - ms0.Mallocs
		r.topAdsUs = append(r.topAdsUs, float64(d.Nanoseconds())/1e3)
	}
	if n := len(r.deliverUs); n > 0 {
		r.deliverAllocs = float64(deliverAllocs) / float64(n)
		r.deliverNsPerUser = float64(deliverNs) / float64(followers)
	}
	if n := len(r.topAdsUs); n > 0 {
		r.topAdsAllocs = float64(topAllocs) / float64(n)
	}
	return r, nil
}
