package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail percentile:
// a p99 over 300 samples rests on three values and is noise.
const minTail = 10

// tailRank returns the percentile (in (0,1]) reported as a sample's tail:
// the requested q when at least minTail samples lie beyond it, otherwise
// the highest percentile that still leaves minTail samples beyond it.
// Fewer than minTail+1 samples have no honest tail; the maximum is used.
func tailRank(n int, q float64) float64 {
	if n <= minTail {
		return 1
	}
	if limit := 1 - float64(minTail)/float64(n); q > limit {
		return limit
	}
	return q
}

// quantile returns the q-quantile of sorted (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// summary is a latency sample reduced to its median and honest tail.
type summary struct {
	N     int
	P50   float64
	Tail  float64 // value at TailQ
	TailQ float64
	Mean  float64
}

// summarize sorts a copy of vs and reports its median and the tail at
// percentile q under the minTail rule.
func summarize(vs []float64, q float64) summary {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	out := summary{N: len(s), TailQ: tailRank(len(s), q)}
	if len(s) == 0 {
		return out
	}
	out.P50 = quantile(s, 0.5)
	out.Tail = quantile(s, out.TailQ)
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	out.Mean = sum / float64(len(s))
	return out
}

// median of vs (NaN when empty).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
