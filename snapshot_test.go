package caar

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"caar/internal/adstore"
)

// buildSnapshotFixture loads an engine with every kind of durable state.
func buildSnapshotFixture(t *testing.T) *Engine {
	t.Helper()
	e := openEngine(t, testConfig())
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	e.Follow("alice", "bob")
	e.Follow("carol", "bob")
	if err := e.AddCampaign("spring", 24.0, morning.Add(-time.Hour), morning.Add(23*time.Hour)); err != nil {
		t.Fatal(err)
	}
	ads := []Ad{
		{ID: "shoes", Text: "marathon running shoes", Campaign: "spring", Bid: 0.4},
		{ID: "cafe", Text: "espresso pastries downtown", Bid: 0.3,
			Target: &Target{Lat: 1.5, Lng: 1.5, RadiusKm: 25},
			Slots:  []Slot{Morning, Afternoon}},
		{ID: "vpn", Text: "secure vpn anywhere", Bid: 0.6},
	}
	for _, ad := range ads {
		if err := e.AddAd(ad); err != nil {
			t.Fatal(err)
		}
	}
	// Spend some budget so pacing state is non-trivial.
	if ok, err := e.ServeImpression("shoes", morning); err != nil || !ok {
		t.Fatalf("impression: %v %v", ok, err)
	}
	// Posts build vocabulary DF state (persisted) and windows (not).
	e.Post("bob", "marathon training with espresso breaks", morning)
	return e
}

func TestSnapshotRestoreState(t *testing.T) {
	orig := buildSnapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}

	restored, err := Restore(testConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	st := restored.Stats()
	if st.Users != 3 || st.Ads != 3 || st.FollowEdges != 2 {
		t.Fatalf("restored stats = %+v", st)
	}

	// New posts flow through the restored graph and ads still rank by text.
	now := morning.Add(time.Minute)
	if err := restored.Post("bob", "marathon run with new shoes", now); err != nil {
		t.Fatal(err)
	}
	recs, err := restored.Recommend("alice", 3, now)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].AdID != "shoes" {
		t.Fatalf("restored recs = %+v", recs)
	}

	// Geo + slot targeting survived.
	if err := restored.CheckIn("carol", 1.5, 1.5, now); err != nil {
		t.Fatal(err)
	}
	restored.Post("bob", "espresso pastries tasting", now.Add(time.Second))
	recs, _ = restored.Recommend("carol", 3, now.Add(2*time.Second))
	found := false
	for _, r := range recs {
		if r.AdID == "cafe" {
			found = true
		}
	}
	if !found {
		t.Fatalf("geo ad lost in restore: %+v", recs)
	}
	evening := time.Date(2026, 7, 6, 21, 0, 0, 0, time.UTC)
	recs, _ = restored.Recommend("carol", 5, evening)
	for _, r := range recs {
		if r.AdID == "cafe" {
			t.Fatalf("slot targeting lost: cafe served at night: %+v", recs)
		}
	}

	// Budget spend survived the round trip: pacing continues from the
	// recorded spend and still allows a later impression.
	if ok, err := restored.ServeImpression("shoes", morning.Add(12*time.Hour)); err != nil || !ok {
		t.Fatalf("post-restore impression: %v %v", ok, err)
	}
}

func TestSnapshotAdVectorsExact(t *testing.T) {
	orig := buildSnapshotFixture(t)
	var buf bytes.Buffer
	if err := orig.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(testConfig(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical queries must give identical scores: the ad vectors and
	// vocabulary DF state round-tripped exactly. Use a fresh post on both
	// engines so contexts match (windows are intentionally not persisted,
	// so first equalize them).
	now := morning.Add(10 * time.Minute)
	for _, e := range []*Engine{orig, restored} {
		if err := e.Post("alice", "marathon espresso vpn chatter", now); err != nil {
			t.Fatal(err)
		}
	}
	a, err := orig.Recommend("alice", 3, now)
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Recommend("alice", 3, now)
	if err != nil {
		t.Fatal(err)
	}
	// Feed windows legitimately differ (the original engine still holds its
	// pre-snapshot post), so ranks may differ; what must round-trip exactly
	// is the ad set and the context-independent bid component per ad.
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	bidOf := func(recs []Recommendation) map[string]float64 {
		out := map[string]float64{}
		for _, r := range recs {
			out[r.AdID] = r.Bid
		}
		return out
	}
	am, bm := bidOf(a), bidOf(b)
	for id, bid := range am {
		got, ok := bm[id]
		if !ok {
			t.Fatalf("ad %s missing after restore (restored set %v)", id, bm)
		}
		if got != bid {
			t.Fatalf("ad %s bid: %v vs %v", id, bid, got)
		}
	}
}

func TestRestoreRejectsBadSnapshots(t *testing.T) {
	if _, err := Restore(testConfig(), strings.NewReader("{garbage")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := Restore(testConfig(), strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("future version accepted")
	}
	// Edge referencing an unknown user index.
	bad := `{"version":1,"vocab":{"terms":[],"df":[],"docs":0},"users":["a"],"edges":[[0,5]]}`
	if _, err := Restore(testConfig(), strings.NewReader(bad)); err == nil {
		t.Error("dangling edge accepted")
	}
	// Ad with an unknown slot name.
	bad = `{"version":1,"vocab":{"terms":["x"],"df":[1],"docs":1},"users":[],"edges":[],
	        "ads":[{"id":"a","bid":0.5,"global":true,"slots":["brunch"],"terms":{"x":1}}]}`
	if _, err := Restore(testConfig(), strings.NewReader(bad)); err == nil {
		t.Error("unknown slot accepted")
	}
	// Campaign spend beyond budget.
	bad = `{"version":1,"vocab":{"terms":[],"df":[],"docs":0},"users":[],"edges":[],
	        "campaigns":[{"name":"c","budget":1,"start":"2026-07-06T00:00:00Z","end":"2026-07-07T00:00:00Z","spent":5}]}`
	if _, err := Restore(testConfig(), strings.NewReader(bad)); err == nil {
		t.Error("overspent campaign accepted")
	}

	// The checks AddUser and AddAd make one call at a time hold for a
	// snapshot restored in bulk too.
	for _, tc := range []struct {
		name string
		snap string
		want error
	}{
		{"duplicate user handle", `{"version":1,"vocab":{"terms":[],"df":[],"docs":0},"users":["a","b","a"],"edges":[]}`, ErrDuplicate},
		{"empty user handle", `{"version":1,"vocab":{"terms":[],"df":[],"docs":0},"users":["a",""],"edges":[]}`, ErrBadConfig},
		{"duplicate ad ID", `{"version":1,"vocab":{"terms":["x"],"df":[1],"docs":1},"users":[],"edges":[],
		        "ads":[{"id":"a","bid":0.5,"global":true,"terms":{"x":1}},{"id":"a","bid":0.2,"global":true,"terms":{"x":1}}]}`, ErrDuplicate},
		{"ad in unknown campaign", `{"version":1,"vocab":{"terms":["x"],"df":[1],"docs":1},"users":[],"edges":[],
		        "ads":[{"id":"a","campaign":"ghost","bid":0.5,"global":true,"terms":{"x":1}}]}`, adstore.ErrUnknownCampaign},
	} {
		if _, err := Restore(testConfig(), strings.NewReader(tc.snap)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestSnapshotShardedEngine(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	e := openEngine(t, cfg)
	for i := 0; i < 20; i++ {
		e.AddUser(string(rune('a' + i)))
	}
	e.AddAd(Ad{ID: "x", Text: "sneaker sale", Bid: 0.5})
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Restore into a single-shard engine: snapshot is shard-agnostic.
	single := testConfig()
	single.Shards = 1
	restored, err := Restore(single, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if st := restored.Stats(); st.Users != 20 || st.Ads != 1 || st.Shards != 1 {
		t.Fatalf("restored = %+v", st)
	}
}

// syntheticSnapshot encodes a snapshot with the given number of users and
// ads: each user but the first follows the user at half its ID, every
// other ad belongs to a campaign, and each ad has three of 64 terms.
func syntheticSnapshot(t testing.TB, users, ads int) []byte {
	t.Helper()
	sf := snapshotFile{Version: snapshotVersion, Algorithm: AlgorithmCAP}
	for i := 0; i < 64; i++ {
		sf.Vocab.Terms = append(sf.Vocab.Terms, fmt.Sprintf("term%02d", i))
		sf.Vocab.DF = append(sf.Vocab.DF, 1+i%5)
	}
	sf.Vocab.Docs = 10
	for i := 0; i < users; i++ {
		sf.Users = append(sf.Users, fmt.Sprintf("user%07d", i))
		if i > 0 {
			sf.Edges = append(sf.Edges, [2]uint32{uint32(i), uint32(i / 2)})
		}
	}
	sf.Campaigns = []snapshotCampaign{{Name: "spring", Budget: 1e6, Start: morning.Add(-time.Hour), End: morning.Add(24 * time.Hour)}}
	for i := 0; i < ads; i++ {
		sa := snapshotAd{
			ID:     fmt.Sprintf("ad%07d", i),
			Bid:    0.1 + float64(i%9)/10,
			Global: true,
			Terms: map[string]float64{
				sf.Vocab.Terms[i%64]:      0.6,
				sf.Vocab.Terms[(i*7)%64]:  0.5,
				sf.Vocab.Terms[(i*13)%64]: 0.4,
			},
		}
		if i%2 == 0 {
			sa.Campaign = "spring"
		}
		sf.Ads = append(sf.Ads, sa)
	}
	raw, err := json.Marshal(sf)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestRestoreAllocsLinear restores snapshots of N and 4N users and ads and
// requires the bytes allocated to grow at most 6x. Re-adding entities one
// call at a time copies the whole directory per entity, which is quadratic
// (about 16x at these sizes).
func TestRestoreAllocsLinear(t *testing.T) {
	const n = 1000
	alloc := func(size int) uint64 {
		raw := syntheticSnapshot(t, size, size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Restore(testConfig(), bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(n), alloc(4*n)
	ratio := float64(large) / float64(small)
	t.Logf("restore allocated %d B at %d entities, %d B at %d (%.1fx)", small, n, large, 4*n, ratio)
	if ratio > 6 {
		t.Fatalf("restore allocation grew %.1fx for 4x the entities, want at most 6x", ratio)
	}
}

// TestRestoreMatchesOneCallPath checks that a restored engine resolves
// names exactly as the engine it was snapshotted from, which was built one
// AddUser and AddAd at a time, and then serves the same recommendations
// after the same traffic.
func TestRestoreMatchesOneCallPath(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			cfg := testConfig()
			cfg.Shards = shards
			orig := openEngine(t, cfg)
			var users []string
			for i := 0; i < 40; i++ {
				users = append(users, fmt.Sprintf("user%02d", (i*17)%40))
				if err := orig.AddUser(users[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i := 1; i < len(users); i++ {
				if err := orig.Follow(users[i], users[i/3]); err != nil {
					t.Fatal(err)
				}
			}
			if err := orig.AddCampaign("spring", 100, morning.Add(-time.Hour), morning.Add(23*time.Hour)); err != nil {
				t.Fatal(err)
			}
			words := []string{"marathon", "espresso", "vpn", "sneakers", "pastries", "guitar", "concert", "laptop"}
			for i := 0; i < 30; i++ {
				ad := Ad{
					ID:   fmt.Sprintf("ad%02d", (i*7)%30),
					Text: words[i%8] + " " + words[(i*3)%8] + " deal",
					Bid:  0.1 + float64(i%7)/10,
				}
				if i%3 == 0 {
					ad.Campaign = "spring"
				}
				if i%4 == 0 {
					ad.Target = &Target{Lat: 1.5, Lng: 1.5, RadiusKm: 50}
				}
				if err := orig.AddAd(ad); err != nil {
					t.Fatal(err)
				}
			}
			var buf bytes.Buffer
			if err := orig.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(cfg, &buf)
			if err != nil {
				t.Fatal(err)
			}

			want, got := orig.dir.Load(), restored.dir.Load()
			if !slices.Equal(got.users.names, want.users.names) {
				t.Fatalf("names = %v, want %v", got.users.names, want.users.names)
			}
			for _, h := range users {
				w, _ := want.lookup(h)
				if g, err := got.lookup(h); err != nil || g != w {
					t.Fatalf("lookup(%q) = %d, %v; want %d", h, g, err, w)
				}
			}
			if !maps.Equal(got.ads.ids, want.ads.ids) {
				t.Fatalf("ad IDs = %v, want %v", got.ads.ids, want.ads.ids)
			}
			if !maps.Equal(got.ads.refs, want.ads.refs) {
				t.Fatalf("ad refs = %v, want %v", got.ads.refs, want.ads.refs)
			}

			now := morning.Add(time.Minute)
			for _, e := range []*Engine{orig, restored} {
				for i, u := range users {
					if i%5 == 0 {
						if err := e.CheckIn(u, 1.5, 1.5, now); err != nil {
							t.Fatal(err)
						}
					}
				}
				for i := 0; i < 20; i++ {
					text := words[i%8] + " " + words[(i*5)%8] + " today"
					if err := e.Post(users[i%7], text, now.Add(time.Duration(i)*time.Second)); err != nil {
						t.Fatal(err)
					}
				}
			}
			at := now.Add(time.Minute)
			served := 0
			for _, u := range users {
				w, err := orig.Recommend(u, 5, at)
				if err != nil {
					t.Fatal(err)
				}
				g, err := restored.Recommend(u, 5, at)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(g, w) {
					t.Fatalf("Recommend(%q) = %+v, want %+v", u, g, w)
				}
				served += len(g)
			}
			if served == 0 {
				t.Fatal("no recommendations served; the comparison is vacuous")
			}
		})
	}
}
