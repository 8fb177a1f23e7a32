package main

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"
)

// result is one operation as the generator saw it. Times are offsets from
// the segment start; due is when the schedule wanted the request sent.
type result struct {
	due, send, done time.Duration
	status          int // 0 when the request failed before a response
}

func (r result) ok() bool { return r.status >= 200 && r.status < 300 }

// fromDue is the latency a user sees: response time minus due time, so a
// stall also charges the requests queued behind it.
func (r result) fromDue() time.Duration { return r.done - r.due }

// late is how far behind schedule the request was sent.
func (r result) late() time.Duration { return r.send - r.due }

// senders is the number of connections and sending goroutines: one for
// reads and one for writes, but never more than the machine has cores.
func senders() int { return min(2, runtime.NumCPU()) }

// generator drives an open loop over loopback HTTP: operation i is due at
// start + i/rate whatever happened to earlier ones, and is sent by sender
// i mod senders() over that sender's own keep-alive connection. A request
// that stalls delays the later ones of its sender, and they are charged
// from their due time.
type generator struct {
	base    string
	clients []*http.Client
}

func newGenerator(base string) *generator {
	g := &generator{base: base}
	for i := 0; i < senders(); i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: 2 * requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

func (g *generator) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// run sends ops at rate ops/s, fills res (one result per op, allocated by
// the caller so the generator's bookkeeping exists before any heap
// baseline) and returns the wall time the segment started. reqPrefix, when
// non-empty, names each request (X-Request-Id: <prefix><index>) so its
// spans can be joined.
func (g *generator) run(ops []op, rate float64, reqPrefix string, res []result) time.Time {
	start := time.Now()
	lanes := make([][]int, len(g.clients))
	for i := range ops {
		lane := i % len(lanes)
		lanes[lane] = append(lanes[lane], i)
	}
	var wg sync.WaitGroup
	for li, c := range g.clients {
		wg.Add(1)
		go func(lane []int, c *http.Client) {
			defer wg.Done()
			for _, i := range lane {
				due := time.Duration(float64(i) / rate * float64(time.Second))
				sleepUntil(start, due)
				send := time.Since(start)
				id := ""
				if reqPrefix != "" {
					id = reqPrefix + itoa(i)
				}
				status := g.do(c, ops[i], id)
				res[i] = result{due: due, send: send, done: time.Since(start), status: status}
			}
		}(lanes[li], c)
	}
	wg.Wait()
	return start
}

func (g *generator) do(c *http.Client, o op, reqID string) int {
	method := http.MethodGet
	var body io.Reader
	if o.body != nil {
		method = http.MethodPost
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(method, g.base+o.path, body)
	if err != nil {
		return 0
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0
	}
	_, copyErr := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if copyErr != nil {
		return 0
	}
	return resp.StatusCode
}
