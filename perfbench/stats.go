package main

import (
	"math"
	"sort"
	"time"
)

// A timed phase runs in rounds: each round issues the same number of
// operations of each class, so a run attempts whole rounds and every round
// carries the same work (for durable-churn, exactly one auto-checkpoint).
// Metrics are taken per round and the median over rounds is reported, which
// keeps a burst of noise from a neighbouring process to one round.

// round holds one round's samples.
type round struct {
	lat   []float64 // per-operation latency of the sampled class, µs
	other []float64 // second sampled class (writes on durable-churn), µs
	ops   int       // operations completed
	busy  time.Duration
}

// recorder accumulates rounds.
type recorder struct {
	rounds []*round
	cur    *round
}

func (r *recorder) begin() { r.cur = &round{}; r.rounds = append(r.rounds, r.cur) }

// read records one timed read.
func (r *recorder) read(d time.Duration) {
	r.cur.lat = append(r.cur.lat, us(d))
	r.cur.ops++
	r.cur.busy += d
}

// write records one timed write.
func (r *recorder) write(d time.Duration) {
	r.cur.other = append(r.cur.other, us(d))
	r.cur.ops++
	r.cur.busy += d
}

// spend adds in-program time that is not itself an operation (a reopen, a
// follower catch-up) to the round's busy time.
func (r *recorder) spend(d time.Duration) { r.cur.busy += d }

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// perRound returns the median over rounds of f.
func (r *recorder) perRound(f func(*round) float64) float64 {
	vals := make([]float64, 0, len(r.rounds))
	for _, rd := range r.rounds {
		vals = append(vals, f(rd))
	}
	return median(vals)
}

func (r *recorder) readP(p float64) float64 {
	return r.perRound(func(rd *round) float64 { return percentile(rd.lat, p) })
}

func (r *recorder) writeP(p float64) float64 {
	return r.perRound(func(rd *round) float64 { return percentile(rd.other, p) })
}

func (r *recorder) opsPerSec() float64 {
	return r.perRound(func(rd *round) float64 { return float64(rd.ops) / rd.busy.Seconds() })
}

// samples returns the total and the smallest per-round count of read (or,
// with writes set, write) samples.
func (r *recorder) samples(writes bool) (total, perRoundMin int) {
	perRoundMin = math.MaxInt
	for _, rd := range r.rounds {
		n := len(rd.lat)
		if writes {
			n = len(rd.other)
		}
		total += n
		perRoundMin = min(perRoundMin, n)
	}
	if len(r.rounds) == 0 {
		perRoundMin = 0
	}
	return total, perRoundMin
}

// percentile is the nearest-rank p-quantile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timed runs f and returns its wall time.
func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}
