package main

import (
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles the tail rule considers, highest
// first. It stops at p99: on a GET of about 15 us (two clients),
// p99.9 was set by collector and scheduler pauses and read 0.49 to
// 0.98 ms across four runs of one seed, while p99 stayed within 0.10
// to 0.11 ms. Every
// whole percentile from p99 to p95 is on it so that cold_batch's tail
// (p96 at 25 passes of the 13 programs) lands in the middle of
// compiler's class, one op in 13; p95 at 18 passes fell on its lower
// edge, among loader's and simulator's slowest ops.
var tailLadder = []float64{99, 98, 97, 96, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond the tail percentile.
const minBeyond = 10

// tail applies the tail rule: the latency at the highest percentile of
// tailLadder with at least minBeyond samples beyond it (nearest rank).
// ok is false when there are too few samples for any of them.
func tail(lat []time.Duration) (ms, pct float64, beyond int, ok bool) {
	s := sortedMS(lat)
	for _, p := range tailLadder {
		// The epsilon keeps p*n/100 from rounding up past an exact rank.
		rank := int(math.Ceil(p*float64(len(s))/100 - 1e-9))
		if rank >= 1 && len(s)-rank >= minBeyond {
			return s[rank-1], p, len(s) - rank, true
		}
	}
	return 0, 0, 0, false
}

func sortedMS(lat []time.Duration) []float64 {
	s := make([]float64, len(lat))
	for i, d := range lat {
		s[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
