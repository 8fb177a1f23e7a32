package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"strconv"
	"time"

	caar "caar"
	"caar/internal/adstore"
	"caar/internal/timeslot"
	"caar/workload"
)

// spec is one benchmark workload: the generator settings, the engine's shard
// count, the traffic mix, the fixed offered rate and the capacity ladder.
type spec struct {
	name string
	why  string

	users        int
	avgFollowees int
	ads          int
	celebrities  int
	celebFrac    float64 // share of all users following each celebrity
	celebPosts   float64 // share of posts written by celebrities
	checkInEvery int     // one check-in per this many posts

	shards  int
	recFrac float64 // share of operations that are recommends

	rate       float64   // fixed-rate segment, ops/s
	ladder     []float64 // capacity ladder, ops/s, ascending
	p50LimitMs float64   // ladder pass limit on the all-operation median latency
	tailEvents int       // posts and check-ins pushed through ingest after the restore
}

// recK is the k of every recommend request and of the oracle comparison.
const recK = 5

// oracleSample is how many users the oracle and restart checks compare.
const oracleSample = 200

var specs = []*spec{
	{
		name: "feed-read",
		why: "read-heavy feed refresh (90% recommends, 9% posts, 1% check-ins), no celebrities, 1 shard: " +
			"the read path dominates while ingest, journal and core.Deliver stay light",
		users: 1500, avgFollowees: 8, ads: 1500,
		checkInEvery: 9,
		shards:       1,
		recFrac:      0.90,
		rate:         1000,
		ladder:       []float64{2000, 3000, 4000, 5000, 6000},
		p50LimitMs:   5,
		tailEvents:   1500,
	},
	{
		name: "celebrity-write",
		why: "write-heavy stream (80% posts, 8% check-ins, 12% recommends) with 4 celebrities each followed by 30% of users, " +
			"2 shards: fan-out, group commit and apply dominate and reads share shard locks with big fan-outs",
		users: 1500, avgFollowees: 8, ads: 1500,
		celebrities: 4, celebFrac: 0.30, celebPosts: 0.05,
		checkInEvery: 10,
		shards:       2,
		recFrac:      0.12,
		rate:         400,
		ladder:       []float64{1000, 1500, 2000, 2500, 3000},
		p50LimitMs:   5,
		tailEvents:   1500,
	},
}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

type opKind uint8

const (
	opRecommend opKind = iota
	opPost
	opCheckIn
)

func (k opKind) String() string {
	return [...]string{"recommend", "post", "checkin"}[k]
}

// op is one scheduled client operation with its request pre-rendered, so the
// generator does no encoding between due time and send.
type op struct {
	kind opKind
	user string
	text string
	lat  float64
	lng  float64
	at   time.Time
	path string // URL path and query
	body []byte // POST body (nil for GET)
	ev   int    // index of the generated event (posts and check-ins)
	uid  int    // user index (recommends)
}

// postKey identifies a post across the HTTP, ingest, journal and engine
// boundaries by what every layer sees: author, timestamp and text.
func postKey(author string, at time.Time, text string) string {
	return author + "|" + strconv.FormatInt(at.UnixNano(), 10) + "|" + text
}

// plan is everything a run feeds the system, generated from the seed before
// any timing starts.
type plan struct {
	spec    *spec
	w       *workload.Workload
	users   []string
	follows [][2]string // follower, followee
	ads     []caar.Ad
	warm    []op // posts and check-ins that fill the feed windows
	stream  []op // traffic operations, consumed in order by the segments
	tail    []op // posts and check-ins pushed through ingest after a restore
	sample  []string
	end     time.Time // evaluation time of the oracle and restart checks
}

func userHandle(i int) string       { return fmt.Sprintf("u%05d", i) }
func adName(id adstore.AdID) string { return fmt.Sprintf("ad-%05d", id) }

// newPlan generates the workload for a seed. streamOps is how many traffic
// operations the run's segments consume.
func newPlan(s *spec, seed int64, streamOps int) (*plan, error) {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.Users = s.users
	cfg.AvgFollowees = s.avgFollowees
	cfg.Ads = s.ads
	cfg.Celebrities = s.celebrities
	cfg.CelebrityFollowFrac = s.celebFrac
	cfg.CheckInEvery = s.checkInEvery
	cfg.RenderText = true

	window := caar.DefaultConfig().WindowSize
	streamEvents := int(math.Ceil(float64(streamOps)*(1-s.recFrac))) + 1
	// The warm-up length depends on the generated graph; guess from the mean
	// fan-out and grow until it fits. The stream prefix does not depend on
	// Messages, so the result is a function of the seed alone.
	cfg.Messages = s.users*window/(s.avgFollowees+1)*2 + streamEvents + s.tailEvents
	for {
		w, err := workload.Generate(cfg)
		if err != nil {
			return nil, err
		}
		p, ok := buildPlan(s, w, window, streamOps, seed)
		if ok {
			return p, nil
		}
		cfg.Messages *= 2
	}
}

func buildPlan(s *spec, w *workload.Workload, window, streamOps int, seed int64) (*plan, bool) {
	p := &plan{spec: s, w: w}
	for _, u := range w.Users {
		p.users = append(p.users, userHandle(int(u.ID)))
	}
	for _, u := range w.Users {
		for _, f := range w.Graph.Followers(u.ID) {
			p.follows = append(p.follows, [2]string{userHandle(int(f)), userHandle(int(u.ID))})
		}
	}
	for _, a := range w.InitialAds() {
		p.ads = append(p.ads, apiAd(w, a))
	}

	// The generator draws each celebrity's posting activity at random, so
	// the celebrity share of posts, and with it the fan-out cost per post,
	// would swing by tens of percent from seed to seed. The stream therefore
	// interleaves celebrity posts at the spec's fixed share, each event
	// keeping its author and text and taking the next timestamp of the
	// generated stream.
	var times []time.Time
	var plain, celeb []int
	for i, ev := range w.Events {
		if ev.Kind != workload.EventPost && ev.Kind != workload.EventCheckIn {
			continue
		}
		times = append(times, ev.Time)
		if ev.Kind == workload.EventPost && int(ev.User) < s.celebrities {
			celeb = append(celeb, i)
		} else {
			plain = append(plain, i)
		}
	}
	taken, posts, celebTaken := 0, 0, 0
	take := func() (op, bool) {
		var i int
		switch {
		case taken >= len(times):
			return op{}, false
		case s.celebrities > 0 && float64(celebTaken) < s.celebPosts*float64(posts+1):
			if len(celeb) == 0 {
				return op{}, false
			}
			i, celeb = celeb[0], celeb[1:]
			celebTaken++
		case len(plain) > 0:
			i, plain = plain[0], plain[1:]
		default:
			return op{}, false
		}
		ev, at := w.Events[i], times[taken]
		taken++
		var o op
		if ev.Kind == workload.EventPost {
			posts++
			o = postOp(userHandle(int(ev.User)), ev.Text, at)
		} else {
			o = checkInOp(userHandle(int(ev.User)), ev.Loc.Lat, ev.Loc.Lng, at)
		}
		o.ev = i
		return o, true
	}

	// Warm-up: until the posts have delivered a full window per user.
	need := len(w.Users) * window
	for delivered := 0; delivered < need; {
		o, ok := take()
		if !ok {
			return nil, false
		}
		if o.kind == opPost {
			delivered += 1 + w.Graph.FollowerCount(w.Events[o.ev].User)
		}
		p.warm = append(p.warm, o)
	}

	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	now := p.warm[len(p.warm)-1].at
	for len(p.stream) < streamOps {
		if rng.Float64() < s.recFrac {
			uid := rng.Intn(len(p.users))
			o := recommendOp(p.users[uid], now)
			o.uid = uid
			p.stream = append(p.stream, o)
			continue
		}
		o, ok := take()
		if !ok {
			return nil, false
		}
		now = o.at
		p.stream = append(p.stream, o)
	}
	for len(p.tail) < s.tailEvents {
		o, ok := take()
		if !ok {
			return nil, false
		}
		p.tail = append(p.tail, o)
	}
	p.end = p.tail[len(p.tail)-1].at
	for _, i := range rng.Perm(len(p.users))[:min(oracleSample, len(p.users))] {
		p.sample = append(p.sample, p.users[i])
	}
	return p, true
}

// apiAd converts a generated ad to its API form with the rendered text.
func apiAd(w *workload.Workload, a *adstore.Ad) caar.Ad {
	ad := caar.Ad{ID: adName(a.ID), Text: w.AdText[a.ID], Campaign: a.Campaign, Bid: a.Bid}
	if !a.Global {
		ad.Target = &caar.Target{Lat: a.Target.Center.Lat, Lng: a.Target.Center.Lng, RadiusKm: a.Target.RadiusKm}
	}
	if a.Slots != timeslot.AllSlots {
		for _, sl := range a.Slots.Slots() {
			ad.Slots = append(ad.Slots, caar.Slot(sl.String()))
		}
	}
	return ad
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always encode
	}
	return b
}

func postOp(author, text string, at time.Time) op {
	return op{kind: opPost, user: author, text: text, at: at, path: "/v1/posts",
		body: mustJSON(map[string]string{"author": author, "text": text, "at": at.Format(time.RFC3339Nano)})}
}

func checkInOp(user string, lat, lng float64, at time.Time) op {
	return op{kind: opCheckIn, user: user, lat: lat, lng: lng, at: at, path: "/v1/checkins",
		body: mustJSON(map[string]any{"user": user, "lat": lat, "lng": lng, "at": at.Format(time.RFC3339Nano)})}
}

func recommendOp(user string, at time.Time) op {
	q := url.Values{"user": {user}, "k": {strconv.Itoa(recK)}, "at": {at.Format(time.RFC3339Nano)}}
	return op{kind: opRecommend, user: user, at: at, path: "/v1/recommendations?" + q.Encode()}
}
