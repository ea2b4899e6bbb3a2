package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie strictly above a reported
// percentile: a tail figure resting on fewer samples is noise.
const minBeyond = 10

// tail reports the highest percentile at or below q that has at least
// minBeyond samples beyond it, with that percentile and the sample count.
// When fewer than 2*minBeyond samples exist no tail percentile qualifies and
// the median is reported instead. Samples may contain +Inf (a failed
// request counted as a miss); the result is then +Inf when the percentile
// lands on one.
func tail(samples []float64, q float64) (value, qEff float64, n int) {
	n = len(samples)
	if n == 0 {
		return math.NaN(), q, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	qEff = math.Min(q, 1-float64(minBeyond)/float64(n))
	if qEff < 0.5 {
		qEff = 0.5
	}
	return s[rankIndex(n, qEff)], qEff, n
}

// rankIndex is the nearest-rank index of quantile q in n sorted samples:
// the smallest index i with (i+1)/n >= q.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// median is the nearest-rank median (NaN for no samples).
func median(samples []float64) float64 {
	v, _, _ := tail(samples, 0.5)
	return v
}

// outcome is one timed request: when it was due by the open-loop schedule,
// when the generator was free to send it, when it went out, when it came
// back, and whether it succeeded. A refused (429), failed (5xx) or dropped
// request has ok == false.
type outcome struct {
	due, free, sent, done time.Time
	ok                    bool
}

// latencyMs is the request's latency from its due time, so a stall counts
// against every request it delayed, less the generator's own lateness (its
// sleep overshoot, which is a measurement error bounded by the health check
// on gen.late_p99_ms); a failure is a miss (+Inf).
func (o outcome) latencyMs() float64 {
	if !o.ok {
		return math.Inf(1)
	}
	return ms(o.done.Sub(o.due)) - o.lateMs()
}

// lateMs is how late the generator itself sent the request: the gap between
// the later of its due time and the moment a connection became free, and
// the send. Waiting for a busy connection is the system's latency, not the
// generator's lateness.
func (o outcome) lateMs() float64 {
	ref := o.due
	if o.free.After(ref) {
		ref = o.free
	}
	if o.sent.Before(ref) {
		return 0
	}
	return ms(o.sent.Sub(ref))
}

// latencies maps outcomes to their due-time latencies (misses as +Inf).
func latencies(outs []outcome) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = o.latencyMs()
	}
	return v
}

// errorShare is the failed share of attempted requests.
func errorShare(outs []outcome) (share float64, failed int) {
	for _, o := range outs {
		if !o.ok {
			failed++
		}
	}
	if len(outs) == 0 {
		return 0, 0
	}
	return float64(failed) / float64(len(outs)), failed
}

// lateness returns the generator lateness of every request, in ms.
func lateness(outs []outcome) []float64 {
	v := make([]float64, len(outs))
	for i, o := range outs {
		v[i] = o.lateMs()
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
