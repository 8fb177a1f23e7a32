package caar

import (
	"cmp"
	"errors"
	"fmt"
	"hash/maphash"
	"maps"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"caar/internal/adstore"
	"caar/internal/core"
	"caar/internal/faultinject"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
	"caar/obs"
	"caar/obs/hotkey"
	"caar/obs/trace"
)

// Engine is the public recommender. It is safe for concurrent use: the text
// pipeline and ad store are concurrency-safe, per-shard locks serialize
// engine-state mutation while allowing posts to fan out across shards in
// parallel, and the name-resolution state (user handles, ad names,
// campaigns) lives in an immutable copy-on-write directory published with
// an atomic pointer — the serving read path resolves names without taking
// any global lock.
type Engine struct {
	cfg      Config
	pipeline *textproc.Pipeline
	store    *adstore.Store
	graph    *feed.Graph

	// dir is the current name-resolution snapshot. Readers load it once
	// per request; writers clone-mutate-publish under dirMu. nextAd is
	// also guarded by dirMu.
	dir    atomic.Pointer[directory]
	dirMu  sync.Mutex
	nextAd adstore.AdID // guarded by dirMu

	shards      []shard
	msgSeq      atomic.Int64
	impressions *impressionLog
	trends      *trendTracker

	postsDelivered atomic.Uint64
	checkIns       atomic.Uint64

	metrics *obs.Registry
	obsm    *engineMetrics
	tracer  *trace.Store

	// hot is the heavy-hitter telemetry tracker; nil when disabled. All
	// record calls on it are lock-free enqueues (nil-safe no-ops when
	// disabled), so the serving path's lock-freedom is preserved.
	hot *hotkey.Tracker
}

// adRef is a directory entry for one live ad: its external name and its
// campaign (empty for campaign-less ads). Keeping the campaign here lets
// the policy stage resolve it without consulting the (locked) ad store.
type adRef struct {
	name     string
	campaign string
}

// directory is the engine's immutable name-resolution snapshot: a user
// table and an ad table. A directory is never mutated after being
// published via Engine.dir — writers build a new one under Engine.dirMu and
// atomically swap it in, so readers work against one consistent view with
// zero lock acquisitions and writers never block readers. A new directory
// shares the table its writer left unchanged: AddUser copies nothing of the
// ad table, AddAd and RemoveAd nothing of the user table.
type directory struct {
	users *userTable
	ads   *adTable
}

// userTable resolves user handles to internal IDs and back. Users are
// append-only and every writer extends the newest table (it holds dirMu and
// starts from the published directory), which lets a new table share nearly
// everything with its predecessor:
//   - names shares its backing array: a new table appends past the
//     published length, where no older table reads;
//   - handles is a persistent hash trie: an insert copies one root-to-leaf
//     path.
//
// So one AddUser costs O(log users), not O(users).
type userTable struct {
	names   []string // handle by internal user ID
	handles handleTrie
}

// adTable maps external ad names to internal IDs and back. Ads come and go
// and number in the thousands, so a writer copies both maps.
type adTable struct {
	ids  map[string]adstore.AdID
	refs map[adstore.AdID]adRef
}

func newDirectory() *directory {
	return &directory{
		users: &userTable{handles: handleTrie{seed: maphash.MakeSeed()}},
		ads:   newAdTable(0),
	}
}

// newUserTable builds a table holding handles as user IDs 0..n-1 in one
// pass. It rejects empty and duplicate handles, as AddUser does, and takes
// ownership of handles.
func newUserTable(handles []string) (*userTable, error) {
	t := handleTrie{seed: maphash.MakeSeed()}
	entries := make([]trieEntry, len(handles))
	for i, h := range handles {
		if h == "" {
			return nil, fmt.Errorf("%w: empty user handle", ErrBadConfig)
		}
		entries[i] = trieEntry{hash: maphash.String(t.seed, h), handle: h, id: feed.UserID(i)}
	}
	slices.SortFunc(entries, func(a, b trieEntry) int {
		return cmp.Or(cmp.Compare(a.hash, b.hash), cmp.Compare(a.handle, b.handle))
	})
	for i := 1; i < len(entries); i++ {
		if entries[i].handle == entries[i-1].handle {
			return nil, fmt.Errorf("%w: user %q", ErrDuplicate, entries[i].handle)
		}
	}
	if len(entries) > 0 {
		t.root = buildTrie(entries, 0)
	}
	return &userTable{names: handles, handles: t}, nil
}

// with returns the table extended by handle as the next user ID. Call it on
// the newest table only: the new names slice writes into the shared backing
// array at this table's length, so extending one table twice would let the
// second extension overwrite the first's entry.
func (t *userTable) with(handle string) *userTable {
	return &userTable{
		names:   append(t.names, handle),
		handles: t.handles.with(handle, feed.UserID(len(t.names))),
	}
}

func newAdTable(size int) *adTable {
	return &adTable{
		ids:  make(map[string]adstore.AdID, size),
		refs: make(map[adstore.AdID]adRef, size),
	}
}

// clone copies the ad table so a writer can mutate its private copy before
// publishing. Cost is O(ads), paid only by AddAd and RemoveAd, never on the
// serving path.
func (t *adTable) clone() *adTable {
	nt := newAdTable(len(t.ids) + 1)
	maps.Copy(nt.ids, t.ids)
	maps.Copy(nt.refs, t.refs)
	return nt
}

// withUser returns a copy of the directory with one user added as the next
// user ID. The ad table is shared.
func (d *directory) withUser(handle string) *directory {
	return &directory{users: d.users.with(handle), ads: d.ads}
}

// withAd returns a copy of the directory with one ad mapping added. The
// user table is shared.
func (d *directory) withAd(name string, id adstore.AdID, campaign string) *directory {
	ads := d.ads.clone()
	ads.ids[name] = id
	ads.refs[id] = adRef{name: name, campaign: campaign}
	return &directory{users: d.users, ads: ads}
}

// withoutAd returns a copy of the directory with one ad mapping removed. The
// user table is shared.
func (d *directory) withoutAd(name string, id adstore.AdID) *directory {
	ads := d.ads.clone()
	delete(ads.ids, name)
	delete(ads.refs, id)
	return &directory{users: d.users, ads: ads}
}

// lookup resolves a user handle in this snapshot.
func (d *directory) lookup(handle string) (feed.UserID, error) {
	id, ok := d.users.handles.get(handle)
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownUser, handle)
	}
	return id, nil
}

// userName resolves an internal user ID back to its handle.
func (d *directory) userName(u feed.UserID) string {
	if int(u) < len(d.users.names) {
		return d.users.names[u]
	}
	return fmt.Sprintf("user-%d", u)
}

// campaignOf resolves an external ad ID to its campaign name ("" when
// campaign-less or withdrawn from this snapshot).
func (d *directory) campaignOf(adID string) string {
	id, ok := d.ads.ids[adID]
	if !ok {
		return ""
	}
	return d.ads.refs[id].campaign
}

// Shape of the handle trie: each level consumes trieBits of the hash, from
// the top, so a node has at most 64 children; a leaf splits once it would
// hold more than trieLeafMax entries. Leaves past the last hash bits never
// split (they hold only full 64-bit collisions).
const (
	trieBits    = 6
	trieLeafMax = 8
)

// handleTrie is a persistent hash trie from user handle to internal ID. It
// is never mutated: with returns a new trie sharing every node off the path
// to the new key. Lookups allocate nothing.
type handleTrie struct {
	seed maphash.Seed
	root *trieNode // nil when empty
}

// trieNode is a leaf (kids == nil) holding entries sorted by hash, or an
// internal node whose children sit in slot order, one per set bit of mask.
type trieNode struct {
	mask    uint64
	kids    []*trieNode
	entries []trieEntry
}

type trieEntry struct {
	hash   uint64
	handle string
	id     feed.UserID
}

// trieSlot is the child slot of hash at the given depth.
func trieSlot(hash uint64, depth uint) uint64 {
	return hash << (depth * trieBits) >> (64 - trieBits)
}

// trieFull reports whether depth has consumed every hash bit.
func trieFull(depth uint) bool { return depth*trieBits >= 64 }

func (t handleTrie) get(handle string) (feed.UserID, bool) {
	hash := maphash.String(t.seed, handle)
	n := t.root
	for depth := uint(0); n != nil; depth++ {
		if n.kids == nil {
			for _, e := range n.entries {
				if e.hash == hash && e.handle == handle {
					return e.id, true
				}
			}
			return 0, false
		}
		bit := uint64(1) << trieSlot(hash, depth)
		if n.mask&bit == 0 {
			return 0, false
		}
		n = n.kids[bits.OnesCount64(n.mask&(bit-1))]
	}
	return 0, false
}

// with returns the trie with handle added. The handle must be absent.
func (t handleTrie) with(handle string, id feed.UserID) handleTrie {
	e := trieEntry{hash: maphash.String(t.seed, handle), handle: handle, id: id}
	return handleTrie{seed: t.seed, root: t.root.with(e, 0)}
}

// with returns a copy of the subtree at depth with e inserted, sharing every
// child it does not descend into.
func (n *trieNode) with(e trieEntry, depth uint) *trieNode {
	if n == nil {
		return &trieNode{entries: []trieEntry{e}}
	}
	if n.kids == nil {
		i, _ := slices.BinarySearchFunc(n.entries, e.hash, func(x trieEntry, h uint64) int { return cmp.Compare(x.hash, h) })
		entries := make([]trieEntry, 0, len(n.entries)+1)
		entries = append(append(append(entries, n.entries[:i]...), e), n.entries[i:]...)
		return buildTrie(entries, depth)
	}
	bit := uint64(1) << trieSlot(e.hash, depth)
	i := bits.OnesCount64(n.mask & (bit - 1))
	if n.mask&bit != 0 {
		kids := slices.Clone(n.kids)
		kids[i] = n.kids[i].with(e, depth+1)
		return &trieNode{mask: n.mask, kids: kids}
	}
	kids := make([]*trieNode, 0, len(n.kids)+1)
	kids = append(append(append(kids, n.kids[:i]...), &trieNode{entries: []trieEntry{e}}), n.kids[i:]...)
	return &trieNode{mask: n.mask | bit, kids: kids}
}

// buildTrie builds the subtree at depth holding entries, which must be
// sorted by hash and agree on the hash bits above depth. Leaves keep
// subslices of entries.
func buildTrie(entries []trieEntry, depth uint) *trieNode {
	if len(entries) <= trieLeafMax || trieFull(depth) {
		return &trieNode{entries: entries}
	}
	n := &trieNode{}
	for i := 0; i < len(entries); {
		slot := trieSlot(entries[i].hash, depth)
		j := i + 1
		for j < len(entries) && trieSlot(entries[j].hash, depth) == slot {
			j++
		}
		n.mask |= 1 << slot
		n.kids = append(n.kids, buildTrie(entries[i:j:j], depth+1))
		i = j
	}
	return n
}

// shard is one engine instance plus its serializing lock and the trace
// sink its stage recorder reads. shard is copied by value; the pointers
// keep all copies sharing one lock and one sink.
type shard struct {
	mu   *sync.Mutex
	eng  core.Shardable
	sink *coreTraceSink
}

// coreTraceSink routes the stage spans measured under the shard lock into
// the active request's trace. The tr field is written (set and cleared) and
// read only while the shard lock is held — TopAds is serialized by that
// lock — so no atomics are needed.
type coreTraceSink struct {
	tr *trace.Trace
}

// Common errors returned by Engine methods.
var (
	ErrUnknownUser     = errors.New("caar: unknown user")
	ErrUnknownAd       = errors.New("caar: unknown ad")
	ErrUnknownCampaign = errors.New("caar: unknown campaign")
	ErrDuplicate       = errors.New("caar: duplicate identifier")
)

// Open creates an engine from a configuration.
func Open(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	nShards := cfg.Shards
	if nShards < 1 {
		nShards = 1
	}
	e := &Engine{
		cfg:         cfg,
		pipeline:    textproc.NewPipeline(),
		store:       adstore.NewStore(),
		graph:       feed.NewGraph(),
		nextAd:      1,
		impressions: newImpressionLog(),
		trends:      newTrendTracker(),
	}
	e.dir.Store(newDirectory())
	scoring := cfg.scoring()
	region := geo.Rect(cfg.Region)
	rows, cols := cfg.GridRows, cfg.GridCols
	if rows < 1 {
		rows = 32
	}
	if cols < 1 {
		cols = 32
	}
	for i := 0; i < nShards; i++ {
		var (
			eng core.Shardable
			err error
		)
		switch cfg.Algorithm {
		case AlgorithmRS:
			eng, err = core.NewRS(scoring, e.store)
		case AlgorithmIL:
			eng, err = core.NewIL(scoring, e.store, region, rows, cols)
		default:
			eng, err = core.NewCAP(scoring, e.store, region, rows, cols, core.CAPOptions{
				FanoutSharing: cfg.FanoutSharing,
				RebuildEvery:  cfg.RebuildEvery,
			})
		}
		if err != nil {
			return nil, err
		}
		e.shards = append(e.shards, shard{mu: new(sync.Mutex), eng: eng, sink: new(coreTraceSink)})
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	e.metrics = reg
	e.obsm = newEngineMetrics(reg, e)
	e.tracer = cfg.Tracer
	if e.tracer != nil {
		e.tracer.RegisterMetrics(reg)
	}
	if !cfg.DisableHotKeys {
		hot, err := hotkey.New(hotkey.Config{Window: cfg.HotKeyWindow, Metrics: reg})
		if err != nil {
			return nil, err
		}
		// Display names resolve at query time against whatever directory
		// snapshot is current then — one lock-free atomic load, no
		// serving-path locks. Terms resolve through the vocabulary's
		// read lock, which only queries (never record sites) pay.
		hot.SetResolver(hotkey.DimUsers, func(key uint64) string {
			return e.dir.Load().userName(feed.UserID(key))
		})
		hot.SetResolver(hotkey.DimPosters, func(key uint64) string {
			return e.dir.Load().userName(feed.UserID(key))
		})
		hot.SetResolver(hotkey.DimTerms, func(key uint64) string {
			return e.pipeline.Vocab.Term(textproc.TermID(key))
		})
		e.hot = hot
	}
	for _, sh := range e.shards {
		if ss, ok := sh.eng.(core.StageSetter); ok {
			sink := sh.sink
			ss.SetStageRecorder(func(s core.Stage, d time.Duration, in, out int) {
				e.obsm.recordCoreStage(s, d)
				if tr := sink.tr; tr != nil {
					tr.AddSpan(s.String(), d, in, out)
				}
			})
		}
	}
	return e, nil
}

// Algorithm returns the configured algorithm name.
func (e *Engine) Algorithm() Algorithm {
	if e.cfg.Algorithm == "" {
		return AlgorithmCAP
	}
	return e.cfg.Algorithm
}

func (e *Engine) shardOf(u feed.UserID) shard {
	return e.shards[int(u)%len(e.shards)]
}

// AddUser registers a user handle. Duplicate handles are rejected.
func (e *Engine) AddUser(handle string) error {
	if handle == "" {
		return fmt.Errorf("%w: empty user handle", ErrBadConfig)
	}
	e.dirMu.Lock()
	unwatch := faultinject.WatchLock("engine.dirMu")
	d := e.dir.Load()
	if _, dup := d.users.handles.get(handle); dup {
		unwatch()
		e.dirMu.Unlock()
		return fmt.Errorf("%w: user %q", ErrDuplicate, handle)
	}
	id := feed.UserID(len(d.users.names))
	e.dir.Store(d.withUser(handle))
	unwatch()
	e.dirMu.Unlock()

	e.graph.AddUser(id)
	sh := e.shardOf(id)
	sh.mu.Lock()
	sh.eng.AddUser(id)
	sh.mu.Unlock()
	return nil
}

func (e *Engine) lookupUser(handle string) (feed.UserID, error) {
	return e.dir.Load().lookup(handle)
}

// Follow makes follower receive followee's posts.
func (e *Engine) Follow(follower, followee string) error {
	fid, err := e.lookupUser(follower)
	if err != nil {
		return err
	}
	pid, err := e.lookupUser(followee)
	if err != nil {
		return err
	}
	return e.graph.Follow(fid, pid)
}

// Unfollow removes a follow edge.
func (e *Engine) Unfollow(follower, followee string) error {
	fid, err := e.lookupUser(follower)
	if err != nil {
		return err
	}
	pid, err := e.lookupUser(followee)
	if err != nil {
		return err
	}
	return e.graph.Unfollow(fid, pid)
}

// AddCampaign registers an ad campaign with a paced budget over a flight
// window.
func (e *Engine) AddCampaign(name string, budget float64, start, end time.Time) error {
	c, err := adstore.NewCampaign(name, budget, start, end)
	if err != nil {
		return err
	}
	if err := e.store.AddCampaign(c); err != nil {
		if errors.Is(err, adstore.ErrDuplicateCampaign) {
			return fmt.Errorf("%w: campaign %q", ErrDuplicate, name)
		}
		return err
	}
	return nil
}

// AddAd validates and registers an advertisement.
func (e *Engine) AddAd(ad Ad) error {
	if ad.ID == "" {
		return fmt.Errorf("%w: empty ad ID", ErrBadConfig)
	}
	vec := e.vectorize(ad.Text)
	if len(vec) == 0 {
		return fmt.Errorf("caar: ad %q has no indexable keywords in %q", ad.ID, ad.Text)
	}
	slots := timeslot.AllSlots
	if len(ad.Slots) > 0 {
		slots = 0
		for _, s := range ad.Slots {
			sl, ok := s.internal()
			if !ok {
				return fmt.Errorf("%w: unknown slot %q", ErrBadConfig, s)
			}
			slots |= timeslot.NewSet(sl)
		}
	}
	internal := &adstore.Ad{
		Campaign: ad.Campaign,
		Vec:      vec,
		Slots:    slots,
		Bid:      ad.Bid,
	}
	if ad.Target == nil {
		internal.Global = true
	} else {
		internal.Target = geo.Circle{
			Center:   geo.Point{Lat: ad.Target.Lat, Lng: ad.Target.Lng},
			RadiusKm: ad.Target.RadiusKm,
		}
	}

	var err error
	if internal.ID, err = e.mapAd(ad.ID, ad.Campaign); err != nil {
		return err
	}

	if err := internal.Validate(); err != nil {
		e.unmapAd(ad.ID, internal.ID)
		return err
	}
	if err := e.store.Add(internal); err != nil {
		e.unmapAd(ad.ID, internal.ID)
		if errors.Is(err, adstore.ErrUnknownCampaign) {
			return fmt.Errorf("%w: %q (ad %q)", ErrUnknownCampaign, ad.Campaign, ad.ID)
		}
		return err
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.eng.RegisterAd(internal)
		sh.mu.Unlock()
	}
	return nil
}

// mapAd reserves the next internal ID for an external ad name and publishes
// the mapping in a new directory snapshot. The name must be free.
func (e *Engine) mapAd(name, campaign string) (adstore.AdID, error) {
	e.dirMu.Lock()
	defer e.dirMu.Unlock()
	defer faultinject.WatchLock("engine.dirMu")()
	d := e.dir.Load()
	if _, dup := d.ads.ids[name]; dup {
		return 0, fmt.Errorf("%w: ad %q", ErrDuplicate, name)
	}
	id := e.nextAd
	e.nextAd++
	e.dir.Store(d.withAd(name, id, campaign))
	return id, nil
}

func (e *Engine) unmapAd(name string, id adstore.AdID) {
	e.dirMu.Lock()
	unwatch := faultinject.WatchLock("engine.dirMu")
	e.dir.Store(e.dir.Load().withoutAd(name, id))
	unwatch()
	e.dirMu.Unlock()
}

// RemoveAd withdraws an advertisement. The directory snapshot without the
// ad is published *before* the store and shard indexes are torn down: the
// moment RemoveAd commits, no in-flight recommend can resolve the name in
// toRecommendations, so a withdrawn ad is never served even while its
// index entries are still being cleaned up. (The reverse order — the seed
// behavior — let a concurrent recommend serve an ad that RemoveAd had
// already deleted from the store.)
func (e *Engine) RemoveAd(id string) error {
	e.dirMu.Lock()
	unwatch := faultinject.WatchLock("engine.dirMu")
	d := e.dir.Load()
	internalID, ok := d.ads.ids[id]
	if !ok {
		unwatch()
		e.dirMu.Unlock()
		return fmt.Errorf("%w: %q", ErrUnknownAd, id)
	}
	campaign := d.ads.refs[internalID].campaign
	e.dir.Store(d.withoutAd(id, internalID))
	unwatch()
	e.dirMu.Unlock()

	if err := e.store.Remove(internalID); err != nil {
		// Roll the unmap back so the directory and the store stay
		// consistent: the ad is still live.
		e.dirMu.Lock()
		unwatch := faultinject.WatchLock("engine.dirMu")
		e.dir.Store(e.dir.Load().withAd(id, internalID, campaign))
		unwatch()
		e.dirMu.Unlock()
		return err
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		sh.eng.UnregisterAd(internalID)
		sh.mu.Unlock()
	}
	return nil
}

// CheckIn updates a user's location context. It is the single-item form of
// CheckInBatch and shares its implementation.
func (e *Engine) CheckIn(user string, lat, lng float64, at time.Time) error {
	return e.CheckInBatch([]CheckInRequest{{User: user, Lat: lat, Lng: lng, At: at}})[0]
}

// CheckInBatch applies a batch of location updates, grouped by destination
// shard so each shard lock is taken once per batch. The returned slice has
// one entry per request (nil on success), in request order; within a shard,
// updates apply in request order.
func (e *Engine) CheckInBatch(reqs []CheckInRequest) []error {
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return errs
	}
	d := e.dir.Load()
	type slot struct {
		item int
		uid  feed.UserID
	}
	groups := make([][]slot, len(e.shards))
	for i, r := range reqs {
		uid, err := d.lookup(r.User)
		if err != nil {
			errs[i] = err
			continue
		}
		si := int(uid) % len(e.shards)
		groups[si] = append(groups[si], slot{item: i, uid: uid})
	}
	for si, g := range groups {
		if len(g) == 0 {
			continue
		}
		sh := e.shards[si]
		sh.mu.Lock()
		for _, s := range g {
			r := reqs[s.item]
			if err := sh.eng.CheckIn(s.uid, geo.Point{Lat: r.Lat, Lng: r.Lng}, r.At); err != nil {
				errs[s.item] = err
				continue
			}
			e.checkIns.Add(1)
		}
		sh.mu.Unlock()
	}
	return errs
}

// ValidateUser reports whether a handle resolves in the current directory
// snapshot. It is lock-free (one atomic pointer load) so the asynchronous
// ingest accept path can reject unknown authors before enqueueing without
// touching any shard lock.
func (e *Engine) ValidateUser(handle string) error {
	_, err := e.dir.Load().lookup(handle)
	return err
}

// ValidateCheckIn reports whether a check-in would be accepted: the user
// resolves and the point lies inside the configured region. Like
// ValidateUser it is lock-free, so the asynchronous ingest path can return
// the same rejections a synchronous CheckIn would — before acknowledging —
// without touching any shard lock.
func (e *Engine) ValidateCheckIn(user string, lat, lng float64) error {
	if _, err := e.dir.Load().lookup(user); err != nil {
		return err
	}
	r := e.cfg.Region
	if lat < r.MinLat || lat > r.MaxLat || lng < r.MinLng || lng > r.MaxLng {
		return fmt.Errorf("caar: check-in (%v, %v) outside region", lat, lng)
	}
	return nil
}

// Post publishes a message: the text is semantically processed once and the
// message fans out to the author's followers (and the author's own feed).
// With Shards > 1, the fan-out is processed in parallel across shards. Post
// is the single-message form of PostBatch and shares its implementation.
func (e *Engine) Post(author, text string, at time.Time) error {
	return e.PostBatch([]PostRequest{{Author: author, Text: text, At: at}})[0]
}

// PostBatch publishes a batch of messages with grouped fan-out: the batch is
// partitioned by destination shard and each shard's lock is taken once per
// batch, updating every affected follower window under that single
// acquisition, instead of one lock round-trip per post. The returned slice
// has one entry per request (nil on success), in request order; within a
// shard, messages apply in request order. The asynchronous ingest pipeline
// (package ingest) drains its ring through this entry point.
//
// Trending and hot-key telemetry are recorded only for posts whose delivery
// succeeded — a failed fan-out must not pollute Trending or /v1/hot with
// phantom counts.
func (e *Engine) PostBatch(reqs []PostRequest) []error {
	errs := make([]error, len(reqs))
	if len(reqs) == 0 {
		return errs
	}
	// One directory snapshot serves the whole batch: every lookup and every
	// continuous recommendation below resolves names against the same view.
	d := e.dir.Load()
	msgs := make([]feed.Message, len(reqs))
	for i, r := range reqs {
		uid, err := d.lookup(r.Author)
		if err != nil {
			errs[i] = err
			continue
		}
		msgs[i] = feed.Message{
			ID:     feed.MessageID(e.msgSeq.Add(1)),
			Author: uid,
			Time:   r.At,
			Vec:    e.vectorize(r.Text),
		}
	}
	e.deliver(d, reqs, msgs, errs)
	for i := range reqs {
		if errs[i] != nil {
			continue
		}
		// Telemetry strictly after successful delivery (a failed deliver used
		// to leave phantom terms in Trending and /v1/hot?dim=terms).
		e.trends.observe(timeslot.Of(reqs[i].At), msgs[i].Vec)
		for term := range msgs[i].Vec {
			e.hot.RecordKey(hotkey.DimTerms, uint64(term), 1)
		}
	}
	return errs
}

// shardDelivery is one message's fan-out slice destined for a single shard.
type shardDelivery struct {
	item  int // index into the batch
	users []feed.UserID
}

// continuousRec is one continuous-mode recommendation computed under the
// shard lock and delivered to the OnRecommend callback after it is released.
type continuousRec struct {
	user feed.UserID
	recs []core.Scored
}

// deliver fans a batch of messages out to their follower windows, grouped so
// each shard lock is acquired once per batch. Per-item errors land in errs
// (first error wins for an item split across shards). The continuous-mode
// OnRecommend callback is invoked strictly outside the shard lock: a slow
// consumer costs only its own goroutine, never the shard's fan-out or the
// writers queued behind it. Each affected user gets one callback per batch
// (after its last message of the batch), not one per message.
func (e *Engine) deliver(d *directory, reqs []PostRequest, msgs []feed.Message, errs []error) {
	groups := make([][]shardDelivery, len(e.shards))
	for i := range reqs {
		if errs[i] != nil {
			continue
		}
		uid := msgs[i].Author
		followers := e.graph.Followers(uid)
		all := make([]feed.UserID, 0, len(followers)+1)
		all = append(all, uid) // the author sees their own post
		all = append(all, followers...)
		perShard := make(map[int][]feed.UserID, len(e.shards))
		for _, u := range all {
			si := int(u) % len(e.shards)
			perShard[si] = append(perShard[si], u)
		}
		for si, users := range perShard {
			groups[si] = append(groups[si], shardDelivery{item: i, users: users})
		}
	}

	var (
		wg    sync.WaitGroup
		errMu sync.Mutex
	)
	setErr := func(item int, err error) {
		errMu.Lock() //caarlint:allow readpathlock per-item error collection off the fast path
		if errs[item] == nil {
			errs[item] = err
		}
		errMu.Unlock()
	}
	ok := make([]atomic.Bool, len(reqs))
	run := func(si int, work []shardDelivery) {
		sh := e.shards[si]
		var out []continuousRec
		affected := make(map[feed.UserID]time.Time)
		sh.mu.Lock() //caarlint:allow readpathlock per-shard core lock is the designed serialization point
		for _, wk := range work {
			if err := sh.eng.Deliver(msgs[wk.item], wk.users); err != nil {
				setErr(wk.item, err)
				continue
			}
			ok[wk.item].Store(true)
			if e.cfg.ContinuousK > 0 {
				for _, u := range wk.users {
					affected[u] = msgs[wk.item].Time
				}
			}
		}
		for u, at := range affected {
			recs, err := sh.eng.TopAds(u, e.cfg.ContinuousK, at)
			if err != nil {
				e.obsm.continuousErrors.Inc()
				continue
			}
			out = append(out, continuousRec{user: u, recs: recs})
		}
		sh.mu.Unlock()
		// Callback outside the lock: collected under it, invoked after it.
		for _, c := range out {
			e.cfg.OnRecommend(d.userName(c.user), e.toRecommendations(d, c.recs))
		}
	}
	busy := 0
	for _, work := range groups {
		if len(work) > 0 {
			busy++
		}
	}
	for si, work := range groups {
		if len(work) == 0 {
			continue
		}
		if busy == 1 {
			run(si, work)
		} else {
			wg.Add(1)
			go func(si int, work []shardDelivery) {
				defer wg.Done()
				run(si, work)
			}(si, work)
		}
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil || !ok[i].Load() {
			continue
		}
		// Fan-out cost telemetry: the author is charged one unit per feed
		// window written. Lock-free enqueue; nil-safe no-op when disabled.
		n := e.graph.FollowerCount(msgs[i].Author) + 1
		e.hot.RecordKey(hotkey.DimPosters, uint64(msgs[i].Author), uint64(n))
		e.postsDelivered.Add(1)
	}
}

// Recommend returns the top-k ads for a user at the given time.
func (e *Engine) Recommend(user string, k int, at time.Time) ([]Recommendation, error) {
	recs, _, err := e.recommend(user, k, at, ServingPolicy{}, TraceRequest{})
	return recs, err
}

// recommend is the unified serving pipeline behind Recommend,
// RecommendWithPolicy and RecommendTraced: lookup → (shard-lock wait) →
// core ranking (retrieve/score/topk, recorded by the shard engine) →
// result mapping → policy filtering. Every stage lands in the per-stage
// latency histograms — the policy stage too, even with a zero policy, so
// each query touches the whole stage family and the stage counts stay
// mutually comparable. When a tracer is configured (or the request forces
// an explanation) the same stage boundaries also feed the request's flight
// record; with tracing off, tr stays nil and the extra cost is one nil
// check per stage.
func (e *Engine) recommend(user string, k int, at time.Time, policy ServingPolicy, treq TraceRequest) ([]Recommendation, *trace.Trace, error) {
	start := time.Now()
	// Serving-path latency fault: disarmed this is one atomic load. The soak
	// and capture-smoke harnesses arm it (CAAR_DELAYS=serve.recommend:5ms) to
	// verify the SLO watchdog trips and the resulting capture bundle's CPU
	// profile attributes the stall to the injected site.
	faultinject.DelayPoint("serve.recommend")
	tr := e.beginTrace(treq, user, k, at, start)
	// One atomic load pins the name-resolution view for the whole request;
	// no stage below takes a global lock.
	d := e.dir.Load()
	uid, err := d.lookup(user)
	if err != nil {
		e.obsm.recommendErrors.Inc()
		return nil, e.finishTrace(tr, time.Since(start), err), err
	}
	if k < 1 {
		e.obsm.recommendErrors.Inc()
		err := fmt.Errorf("%w: k=%d", ErrBadConfig, k)
		return nil, e.finishTrace(tr, time.Since(start), err), err
	}
	// Hot-key telemetry: one lock-free bounded-queue enqueue (nil-safe
	// no-op when disabled).
	e.hot.RecordKey(hotkey.DimUsers, uint64(uid), 1)
	span := e.obsm.stage(e.obsm.stageLookup, start)
	if tr != nil {
		tr.AddSpan("lookup", span.Sub(start), 1, 1)
	}

	fetch := k
	if policy.enabled() {
		fetch = k * policy.overfetch()
	}
	sh := e.shardOf(uid)
	sh.mu.Lock() //caarlint:allow readpathlock per-shard core lock is the designed serialization point
	locked := time.Now()
	e.obsm.lockWaitSeconds.ObserveDuration(locked.Sub(span))
	if tr != nil {
		tr.Shard = int(uid) % len(e.shards)
		tr.LockWaitSeconds = locked.Sub(span).Seconds()
		sh.sink.tr = tr
	}
	scored, err := sh.eng.TopAds(uid, fetch, at)
	if tr != nil {
		sh.sink.tr = nil
	}
	sh.mu.Unlock()
	if err != nil {
		e.obsm.recommendErrors.Inc()
		return nil, e.finishTrace(tr, time.Since(start), err), err
	}

	span = time.Now()
	recs := e.toRecommendations(d, scored)
	mapped := e.obsm.stage(e.obsm.stageMap, span)
	if tr != nil {
		tr.AddSpan("map", mapped.Sub(span), len(scored), len(recs))
	}
	out := e.applyPolicy(d, user, k, at, policy, recs, tr)
	done := e.obsm.stage(e.obsm.stagePolicy, mapped)
	if tr != nil {
		tr.AddSpan("policy", done.Sub(mapped), len(recs), len(out))
		for _, rec := range out {
			tr.AddAd(trace.AdScore{AdID: rec.AdID, Score: rec.Score, Text: rec.Text, Geo: rec.Geo, Bid: rec.Bid})
		}
	}

	elapsed := time.Since(start)
	e.obsm.recommendSeconds.ObserveDuration(elapsed)
	e.obsm.recommends.Inc()
	return out, e.finishTrace(tr, elapsed, nil), nil
}

// ServeImpression bills one impression of an ad against its campaign's
// paced budget. It reports whether the impression may be shown; false means
// the campaign is out of (released) budget.
func (e *Engine) ServeImpression(adID string, at time.Time) (bool, error) {
	d := e.dir.Load()
	internalID, ok := d.ads.ids[adID]
	if !ok {
		e.obsm.impressions.With("error").Inc()
		return false, fmt.Errorf("%w: %q", ErrUnknownAd, adID)
	}
	served, err := e.store.ChargeImpression(internalID, at)
	switch {
	case err != nil:
		e.obsm.impressions.With("error").Inc()
	case served:
		e.obsm.impressions.With("billed").Inc()
		// Spend telemetry per campaign (per ad name for campaign-less
		// ads): lock-free enqueue against the directory snapshot already
		// loaded above.
		ref := d.ads.refs[internalID]
		name := ref.campaign
		if name == "" {
			name = ref.name
		}
		e.hot.Record(hotkey.DimCampaigns, name, 1)
	default:
		e.obsm.impressions.With("budget_exhausted").Inc()
	}
	return served, err
}

// toRecommendations maps core results to the public type using the
// caller's directory snapshot — no locks, no lookups beyond the map reads.
func (e *Engine) toRecommendations(d *directory, scored []core.Scored) []Recommendation {
	out := make([]Recommendation, 0, len(scored))
	for _, s := range scored {
		ref, ok := d.ads.refs[s.Ad]
		if !ok {
			continue // withdrawn concurrently
		}
		out = append(out, Recommendation{
			AdID:  ref.name,
			Score: s.Score,
			Text:  s.Text,
			Geo:   s.Geo,
			Bid:   s.Bid,
		})
	}
	return out
}

// Stats returns a monitoring snapshot.
func (e *Engine) Stats() Stats {
	st := Stats{
		Ads:            e.store.Len(),
		FollowEdges:    e.graph.Edges(),
		PostsDelivered: e.postsDelivered.Load(),
		CheckIns:       e.checkIns.Load(),
		Shards:         len(e.shards),
	}
	st.Users = len(e.dir.Load().users.names)
	for _, sh := range e.shards {
		sh.mu.Lock()
		if c, ok := sh.eng.(*core.CAP); ok {
			st.CachedMessages += c.CachedMessages()
			st.CandidateBufferEntries += c.TotalBufferEntries()
		}
		sh.mu.Unlock()
	}
	return st
}
