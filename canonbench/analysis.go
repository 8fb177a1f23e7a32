package main

import (
	"strings"
	"time"
)

// tracedSegment is one generator segment run with tracing on.
type tracedSegment struct {
	ops    []op
	res    []result
	start  time.Time
	prefix string // request IDs are prefix + op index
}

// layerStats is the per-layer breakdown of a traced run.
type layerStats struct {
	serverRecSelfUs  []float64
	serverPostSelfUs []float64
	netUs            []float64
	recommendUs      []float64
	submitUs         []float64
	queueWaitUs      []float64
	appendUs         []float64
	appendEntries    []float64
	appendCalls      int
	appendPosts      int
	postBatchUs      []float64
	postBatchPosts   []float64
	applyBusyNs      int64
	applyWaitUs      []float64
	// unattributed[kind] and e2e[kind] sum, per endpoint, the part of the
	// due-to-response time no span covers and that time itself.
	unattributed [3]int64
	e2e          [3]int64
	records      []spanRecord
}

// analyse joins the generator's requests to the recorded spans and reduces
// them to per-layer self times and the span records of the trace file.
func analyse(tr *tracer, segs []tracedSegment) layerStats {
	var ls layerStats
	spans := tr.spans
	httpBy := map[string]int{}
	recBy := map[string]int{}
	submitBy := map[string]int{}
	keyEntry := map[string]int64{}
	appendOf := map[int64]int{}
	applyOf := map[int64]int{}
	for i, sp := range spans {
		switch sp.name {
		case spanHTTP:
			httpBy[sp.reqID] = i
		case spanRecommend:
			recBy[sp.reqID] = i
		case spanSubmit:
			submitBy[sp.key] = i
		case spanAppend:
			ls.appendCalls++
			ls.appendUs = append(ls.appendUs, us(sp.end-sp.start))
			ls.appendEntries = append(ls.appendEntries, float64(sp.n))
			for k, key := range sp.keys {
				e := sp.first + int64(k)
				keyEntry[key] = e
				appendOf[e] = i
				if !isCheckInKey(key) {
					ls.appendPosts++
				}
			}
		case spanPostBatch, spanCheckInBatch:
			ls.applyBusyNs += sp.end - sp.start
			if sp.name == spanPostBatch {
				ls.postBatchUs = append(ls.postBatchUs, us(sp.end-sp.start))
				ls.postBatchPosts = append(ls.postBatchPosts, float64(sp.n))
			}
			for e := sp.first; e < sp.first+sp.n; e++ {
				applyOf[e] = i
			}
		}
	}
	for e, ai := range applyOf {
		if pi, ok := appendOf[e]; ok {
			ls.applyWaitUs = append(ls.applyWaitUs, us(spans[ai].start-spans[pi].end))
		}
	}

	// Span records for the trace file: program spans keep their index as
	// ID; client spans follow.
	parents := make([][]int, len(spans))
	next := len(spans)
	for _, sg := range segs {
		base := tr.ns(sg.start)
		for j, o := range sg.ops {
			r := sg.res[j]
			reqID := sg.prefix + itoa(j)
			hi, ok := httpBy[reqID]
			if !r.ok() || !ok {
				continue
			}
			clientID := next
			next++
			c := interval{base + r.send.Nanoseconds(), base + r.done.Nanoseconds()}
			ls.records = append(ls.records, spanRecord{ID: clientID, Name: spanClient.String(), StartNs: c.lo, EndNs: c.hi, ReqID: reqID})
			parents[hi] = []int{clientID}
			h := ival(spans[hi])
			ls.netUs = append(ls.netUs, us(selfTime(c, []interval{h})))
			tree := []interval{c, h}
			kind := o.kind
			switch o.kind {
			case opRecommend:
				ri, ok := recBy[reqID]
				if !ok {
					continue
				}
				parents[ri] = []int{hi}
				rv := ival(spans[ri])
				tree = append(tree, rv)
				ls.serverRecSelfUs = append(ls.serverRecSelfUs, us(selfTime(h, []interval{rv})))
				ls.recommendUs = append(ls.recommendUs, us(rv.hi-rv.lo))
			default:
				key := postKey(o.user, o.at, o.text)
				if o.kind == opCheckIn {
					key = checkInKey(o.user, o.at, o.lat, o.lng)
					kind = opPost // check-ins share the write endpoint's budget
				}
				si, ok := submitBy[key]
				e, ok2 := keyEntry[key]
				if !ok || !ok2 {
					continue
				}
				parents[si] = []int{hi}
				ai := appendOf[e]
				parents[ai] = append(parents[ai], si)
				if pi, ok := applyOf[e]; ok && len(parents[pi]) == 0 {
					parents[pi] = []int{ai}
				}
				sv, av := ival(spans[si]), ival(spans[ai])
				tree = append(tree, sv, av)
				ls.serverPostSelfUs = append(ls.serverPostSelfUs, us(selfTime(h, []interval{sv})))
				ls.submitUs = append(ls.submitUs, us(sv.hi-sv.lo))
				ls.queueWaitUs = append(ls.queueWaitUs, us(av.lo-sv.lo))
			}
			e2e := interval{base + r.due.Nanoseconds(), c.hi}
			ls.e2e[kind] += e2e.hi - e2e.lo
			ls.unattributed[kind] += e2e.hi - e2e.lo - covered(e2e, tree)
		}
	}
	for i, sp := range spans {
		ls.records = append(ls.records, spanRecord{ID: i, Name: sp.name.String(), StartNs: sp.start, EndNs: sp.end, Parents: parents[i], ReqID: sp.reqID})
	}
	return ls
}

func ival(sp span) interval { return interval{sp.start, sp.end} }

func us(ns int64) float64 { return float64(ns) / 1e3 }

func isCheckInKey(key string) bool { return strings.Contains(key, "|@") }
