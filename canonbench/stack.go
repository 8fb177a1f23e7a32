package main

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/internal/server"
	"caar/journal"
	"caar/obs"
	"caar/obs/slo"
	"caar/obs/trace"
)

// Settings cmd/adserver uses by default; the stack mirrors them so the
// benchmark measures the deployment users run.
const (
	ingestQueue    = 4096
	ingestBatch    = 256
	maxInFlight    = 256
	requestTimeout = 10 * time.Second
	slowRequest    = 500 * time.Millisecond
	traceSample    = 0.01
	traceSlow      = 250 * time.Millisecond
	fsyncInterval  = time.Second
)

// engineConfig is adserver's default engine configuration (-algorithm CAP,
// -window 32, -half-life 2h) with the workload's shard count.
func engineConfig(shards int, reg *obs.Registry) caar.Config {
	cfg := caar.DefaultConfig()
	cfg.Shards = shards
	cfg.Metrics = reg
	cfg.Tracer = trace.NewStore(trace.Config{
		Capacity:      trace.DefaultCapacity,
		SampleRate:    traceSample,
		SlowThreshold: traceSlow,
	})
	return cfg
}

// stack is the serving process cmd/adserver assembles with its default
// flags and -journal set: CAP engine, file journal with -fsync always,
// batched ingest, and the HTTP server with admission control, deadlines,
// trace sampling, SLO tracking and hot-key telemetry.
type stack struct {
	reg     *obs.Registry
	eng     *caar.Engine
	jf      *os.File
	jw      *journal.Writer
	logged  *journal.Logged
	ing     *ingest.Pipeline
	stamp   *stampEngine
	handler http.Handler
	sub     *submitSpans // nil in untraced runs

	jpath string
	stop  chan struct{}
	bg    sync.WaitGroup

	httpSrv *http.Server
	served  chan error
}

// openStack builds the stack over a fresh journal in dir. A non-nil tracer
// puts span wrappers at every layer boundary.
func openStack(dir string, shards int, tr *tracer) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &stack{reg: obs.NewRegistry(), jpath: filepath.Join(dir, "journal.log"), stop: make(chan struct{})}
	var err error
	if s.eng, err = caar.Open(engineConfig(shards, s.reg)); err != nil {
		return nil, err
	}
	if s.jf, err = os.OpenFile(s.jpath, os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644); err != nil {
		return nil, err
	}
	if err := journal.FsyncDir(dir); err != nil {
		s.jf.Close()
		return nil, err
	}
	jm := journal.NewMetrics(s.reg)
	s.jw = journal.NewFileWriter(s.jf, journal.SyncAlways, fsyncInterval)
	s.jw.SetMetrics(jm)
	s.logged = journal.NewLogged(s.eng, s.jw)

	// adserver recovers the journal behind the readiness gate before
	// serving; here the file is new, so recovery only opens the gate.
	recovery := journal.NewRecoveryProgress()
	stats, err := journal.RecoverWithProgress(s.jf, s.eng, recovery)
	if err != nil {
		s.jf.Close()
		return nil, err
	}
	jm.ObserveReplay(stats)

	s.stamp = &stampEngine{inner: s.eng, tr: tr}
	var ij ingest.Journal = s.jw
	if tr != nil {
		ij = &journalSpans{inner: s.jw, tr: tr}
	}
	s.ing = ingest.New(s.stamp, ij, s.reg, ingest.Config{QueueSize: ingestQueue, MaxBatch: ingestBatch})

	var api server.API = s.logged
	var queue server.IngestQueue = s.ing
	if tr != nil {
		api = &recommendSpans{Logged: s.logged, tr: tr}
		s.sub = &submitSpans{inner: s.ing, tr: tr}
		queue = s.sub
	}
	objectives, err := slo.ParseObjectives(slo.DefaultObjectivesSpec)
	if err != nil {
		s.close()
		return nil, err
	}
	// The access log is formatted as adserver formats it, then discarded.
	access := slog.New(slog.NewJSONHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo}))
	srv := server.New(api,
		server.WithMaxInFlight(maxInFlight),
		server.WithRequestTimeout(requestTimeout),
		server.WithMaxBodyBytes(server.DefaultMaxBodyBytes),
		server.WithMetrics(s.reg),
		server.WithAccessLog(access),
		server.WithSlowRequestThreshold(slowRequest),
		server.WithRecoveryProgress(recovery),
		server.WithIngest(queue),
		server.WithSLO(slo.Config{
			FastWindow:    5 * time.Minute,
			SlowWindow:    time.Hour,
			SampleEvery:   10 * time.Second,
			BurnThreshold: 14.4,
		}, objectives...),
	)
	s.handler = srv.Handler()
	if tr != nil {
		s.handler = &httpSpans{inner: s.handler, tr: tr}
	}
	if t := srv.SLO(); t != nil {
		s.bg.Add(1)
		go func() { defer s.bg.Done(); t.Run(s.stop) }()
	}
	if ht := s.eng.HotTracker(); ht != nil {
		s.bg.Add(1)
		go func() { defer s.bg.Done(); ht.Run(s.stop) }()
	}
	return s, nil
}

// load journals the control plane (users, follows, ads) through the
// write-ahead API, as clients of a fresh adserver would.
func (s *stack) load(p *plan) error {
	for _, u := range p.users {
		if err := s.logged.AddUser(u); err != nil {
			return fmt.Errorf("load user %s: %w", u, err)
		}
	}
	for _, f := range p.follows {
		if err := s.logged.Follow(f[0], f[1]); err != nil {
			return fmt.Errorf("load follow %v: %w", f, err)
		}
	}
	for _, a := range p.ads {
		if err := s.logged.AddAd(a); err != nil {
			return fmt.Errorf("load ad %s: %w", a.ID, err)
		}
	}
	return nil
}

// warmSubmitters is how many goroutines push the warm-up through ingest:
// enough to let group commit batch, so warm-up is not one fsync per post.
const warmSubmitters = 32

// warm pushes the warm-up posts and check-ins through ingest and waits
// until all of them are applied.
func (s *stack) warm(p *plan) error {
	return submitAll(s.ing, p.warm, warmSubmitters, func() int64 { return s.stamp.entries.Load() })
}

// submitAll submits ops through q from n goroutines, then waits until
// applied() has grown by len(ops).
func submitAll(q server.IngestQueue, ops []op, n int, applied func() int64) error {
	base := applied()
	var (
		next   atomic.Int64
		failed atomic.Int64
		first  atomic.Value
		wg     sync.WaitGroup
	)
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				if err := submit(q, ops[i]); err != nil {
					failed.Add(1)
					first.CompareAndSwap(nil, err)
				}
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("%d submissions failed, first: %v", n, first.Load())
	}
	return waitFor(func() bool { return applied()-base >= int64(len(ops)) }, 30*time.Second)
}

func submit(q server.IngestQueue, o op) error {
	switch o.kind {
	case opPost:
		return q.SubmitPost(o.user, o.text, o.at)
	case opCheckIn:
		return q.SubmitCheckIn(o.user, o.lat, o.lng, o.at)
	}
	return fmt.Errorf("cannot submit a %s", o.kind)
}

// waitFor polls cond until it holds or the timeout passes.
func waitFor(cond func() bool, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return errors.New("timed out waiting for ingest to apply")
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// serve starts the HTTP server on a loopback port.
func (s *stack) serve() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	s.httpSrv = &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	s.served = make(chan error, 1)
	go func() { s.served <- s.httpSrv.Serve(ln) }()
	return "http://" + ln.Addr().String(), nil
}

// drain shuts the listener down and drains ingest through commit and apply,
// in adserver's shutdown order.
func (s *stack) drain() error {
	if s.httpSrv != nil {
		if err := s.httpSrv.Close(); err != nil {
			return err
		}
		if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		s.httpSrv = nil
	}
	if err := s.ing.Close(); err != nil {
		return err
	}
	return s.jw.Flush()
}

// close stops everything the stack started and releases the journal.
func (s *stack) close() {
	if s.httpSrv != nil || s.ing != nil {
		_ = s.drain() // teardown after a failed run; the failure is already reported
	}
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.bg.Wait()
	s.jf.Close()
}

// stampEngine is the ingest.Engine the pipeline applies through. It forwards
// to *caar.Engine and reads the clock once per returned batch, which stamps
// every post in it as visible: ingest applies in commit order, so a post is
// in every shard when its batch returns.
type stampEngine struct {
	inner *caar.Engine
	tr    *tracer

	mu     sync.Mutex
	stamps []stamp

	entries atomic.Int64 // posts and check-ins handed to the engine
	posts   atomic.Int64 // posts applied without error

	dropPost atomic.Bool // fault injection: swallow the next post
}

type stamp struct {
	key string
	at  time.Time
}

func (s *stampEngine) ValidateUser(h string) error { return s.inner.ValidateUser(h) }
func (s *stampEngine) ValidateCheckIn(u string, lat, lng float64) error {
	return s.inner.ValidateCheckIn(u, lat, lng)
}

func (s *stampEngine) PostBatch(reqs []caar.PostRequest) []error {
	first := s.entries.Load()
	start := time.Now()
	var errs []error
	if s.dropPost.CompareAndSwap(true, false) {
		// A post acked but never applied: the checks must catch this.
		errs = append([]error{nil}, s.inner.PostBatch(reqs[1:])...)
	} else {
		errs = s.inner.PostBatch(reqs)
	}
	end := time.Now()
	ok := 0
	s.mu.Lock()
	for i, r := range reqs {
		if errs[i] == nil {
			ok++
			s.stamps = append(s.stamps, stamp{key: postKey(r.Author, r.At, r.Text), at: end})
		}
	}
	s.mu.Unlock()
	s.posts.Add(int64(ok))
	s.entries.Add(int64(len(reqs)))
	s.tr.batch(spanPostBatch, start, end, first, len(reqs))
	return errs
}

func (s *stampEngine) CheckInBatch(reqs []caar.CheckInRequest) []error {
	first := s.entries.Load()
	start := time.Now()
	errs := s.inner.CheckInBatch(reqs)
	s.entries.Add(int64(len(reqs)))
	s.tr.batch(spanCheckInBatch, start, time.Now(), first, len(reqs))
	return errs
}

// takeStamps returns the visibility stamps recorded so far and clears them.
func (s *stampEngine) takeStamps() []stamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.stamps
	s.stamps = nil
	return out
}
