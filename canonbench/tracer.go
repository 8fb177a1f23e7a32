package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/journal"
	"caar/obs/trace"
)

// spanName is a layer boundary the traced run records.
type spanName uint8

const (
	spanClient       spanName = iota // generator request, send to response
	spanHTTP                         // srv.Handler(): middleware chain and handler
	spanSubmit                       // server.IngestQueue submit: ring, group commit, ack
	spanAppend                       // ingest.Journal AppendBatch: one write and fsync
	spanPostBatch                    // ingest.Engine PostBatch: grouped fan-out
	spanCheckInBatch                 // ingest.Engine CheckInBatch
	spanRecommend                    // API RecommendTraced: engine facade and core top-k
)

var spanNames = [...]string{"client", "http", "ingest.submit", "journal.append_batch",
	"caar.post_batch", "caar.checkin_batch", "caar.recommend"}

func (n spanName) String() string { return spanNames[n] }

// span is one timed call across a layer boundary. Times are nanoseconds
// since the tracer's origin. Batch spans cover the committed (append) or
// applied (post and check-in batch) entries [first, first+n) in commit
// order; keys name the entries of an append span.
type span struct {
	name     spanName
	start    int64
	end      int64
	reqID    string
	key      string
	first, n int64
	keys     []string
}

// tracer keeps spans in memory while it is on; they are analysed and
// written out when the run ends.
type tracer struct {
	origin time.Time
	on     atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.origin).Nanoseconds() }

func (t *tracer) add(sp span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// batch records an apply span; safe on a nil tracer (untraced runs).
func (t *tracer) batch(name spanName, start, end time.Time, first int64, n int) {
	if t == nil || !t.on.Load() {
		return
	}
	t.add(span{name: name, start: t.ns(start), end: t.ns(end), first: first, n: int64(n)})
}

// httpSpans times the whole server handler chain.
type httpSpans struct {
	inner http.Handler
	tr    *tracer
}

func (h *httpSpans) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.tr.on.Load() {
		h.inner.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	h.inner.ServeHTTP(w, r)
	h.tr.add(span{name: spanHTTP, start: h.tr.ns(start), end: h.tr.ns(time.Now()), reqID: r.Header.Get("X-Request-Id")})
}

// submitSpans wraps the ingest queue the server submits posts and check-ins
// to. It counts full-ring rejections in traced and untraced segments alike.
type submitSpans struct {
	inner     *ingest.Pipeline
	tr        *tracer
	queueFull atomic.Int64
}

func (q *submitSpans) SubmitPost(author, text string, at time.Time) error {
	return q.timed(postKey(author, at, text), func() error { return q.inner.SubmitPost(author, text, at) })
}

func (q *submitSpans) SubmitCheckIn(user string, lat, lng float64, at time.Time) error {
	return q.timed(checkInKey(user, at, lat, lng), func() error { return q.inner.SubmitCheckIn(user, lat, lng, at) })
}

func (q *submitSpans) timed(key string, call func() error) error {
	on := q.tr.on.Load()
	start := time.Now()
	err := call()
	if errors.Is(err, ingest.ErrQueueFull) {
		q.queueFull.Add(1)
	}
	if on {
		q.tr.add(span{name: spanSubmit, start: q.tr.ns(start), end: q.tr.ns(time.Now()), key: key})
	}
	return err
}

func checkInKey(user string, at time.Time, lat, lng float64) string {
	return user + "|" + strconv.FormatInt(at.UnixNano(), 10) + "|@" +
		strconv.FormatFloat(lat, 'g', -1, 64) + "," + strconv.FormatFloat(lng, 'g', -1, 64)
}

// journalSpans wraps the group-commit journal. Only the committer calls it,
// so committed counts entries in commit order.
type journalSpans struct {
	inner     ingest.Journal
	tr        *tracer
	committed int64
}

func (j *journalSpans) AppendBatch(entries []journal.Entry) error {
	first := j.committed
	start := time.Now()
	err := j.inner.AppendBatch(entries)
	end := time.Now()
	if err != nil {
		return err
	}
	j.committed += int64(len(entries))
	if j.tr.on.Load() {
		keys := make([]string, len(entries))
		for i, e := range entries {
			if e.Op == journal.OpPost {
				keys[i] = postKey(e.User, e.At, e.Text)
			} else {
				keys[i] = checkInKey(e.User, e.At, e.Lat, e.Lng)
			}
		}
		j.tr.add(span{name: spanAppend, start: j.tr.ns(start), end: j.tr.ns(end), first: first, n: int64(len(entries)), keys: keys})
	}
	return nil
}

func (j *journalSpans) SyncPending() error { return j.inner.SyncPending() }

// recommendSpans is the API the traced server serves. It embeds the
// journaled engine and overrides only RecommendTraced, so every optional
// server interface the journaled engine satisfies still resolves and a
// traced recommend takes the same server path as an untraced one.
type recommendSpans struct {
	*journal.Logged
	tr *tracer
}

func (r *recommendSpans) RecommendTraced(user string, k int, at time.Time, policy caar.ServingPolicy, treq caar.TraceRequest) ([]caar.Recommendation, *trace.Trace, error) {
	if !r.tr.on.Load() {
		return r.Logged.RecommendTraced(user, k, at, policy, treq)
	}
	start := time.Now()
	recs, tr, err := r.Logged.RecommendTraced(user, k, at, policy, treq)
	r.tr.add(span{name: spanRecommend, start: r.tr.ns(start), end: r.tr.ns(time.Now()), reqID: treq.ID})
	return recs, tr, err
}

// spanRecord is a span as written to the trace file.
type spanRecord struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parents []int  `json:"parents,omitempty"`
	ReqID   string `json:"req,omitempty"`
}

// writeSpans writes the resolved span tree, one JSON object per line.
func writeSpans(path string, recs []spanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// interval is a half-open [lo, hi) span of nanoseconds.
type interval struct{ lo, hi int64 }

// covered returns how much of outer the union of ivs covers.
func covered(outer interval, ivs []interval) int64 {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		lo, hi := max(iv.lo, outer.lo), min(iv.hi, outer.hi)
		if lo < hi {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo < clipped[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curLo, curHi, open = iv.lo, iv.hi, true
		case iv.lo <= curHi:
			curHi = max(curHi, iv.hi)
		default:
			total += curHi - curLo
			curLo, curHi = iv.lo, iv.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.hi - parent.lo - covered(parent, children)
}
