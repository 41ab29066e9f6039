package metrics

import (
	"math/bits"
	"time"
)

// latSubBits sets the histogram's sub-bucket resolution: each power-of-two
// latency band splits into 2^latSubBits linear sub-buckets, so a percentile
// is at most 2^-latSubBits (~3 %) below the sample it stands for.
const latSubBits = 5

// Hist is an HDR-style log-linear latency histogram. Recording is two shifts
// and an increment, so per-transaction timing stays cheap enough to leave on
// for a whole measured run; workers each own one and merge after. The
// in-process workload tables and txload's end-to-end mode share it, so their
// percentiles are comparable.
type Hist struct {
	buckets [64 << latSubBits]uint64
	count   uint64
}

// Record adds one sample.
func (h *Hist) Record(d time.Duration) { h.RecordN(d, 1) }

// RecordN records one duration with weight c: an iteration that completed c
// transactions contributes c per-transaction samples at its latency.
func (h *Hist) RecordN(d time.Duration, c uint64) {
	n := max(uint64(d), 1)
	e := bits.Len64(n) - 1
	sub := n >> max(e-latSubBits, 0) & (1<<latSubBits - 1)
	h.buckets[e<<latSubBits|int(sub)] += c
	h.count += c
}

// Merge folds o into h.
func (h *Hist) Merge(o *Hist) {
	for i, n := range o.buckets {
		h.buckets[i] += n
	}
	h.count += o.count
}

// Count returns the number of recorded samples.
func (h *Hist) Count() uint64 { return h.count }

// Percentile returns the p-quantile (0 < p <= 1) of the recorded durations:
// the lower bound of the bucket that holds the sample of that rank, or 0 when
// nothing was recorded.
func (h *Hist) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(p * float64(h.count))
	if target == 0 {
		target = 1
	}
	cum := uint64(0)
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			return bucketValue(i)
		}
	}
	return bucketValue(len(h.buckets) - 1)
}

// bucketValue returns the representative (lower-bound) duration of bucket i:
// band e's leading bit and its sub-bucket's bits below it. In a band of at
// most latSubBits bits the sub-bucket holds the value whole.
func bucketValue(i int) time.Duration {
	e, sub := i>>latSubBits, uint64(i)&(1<<latSubBits-1)
	return time.Duration(1<<e | sub<<max(e-latSubBits, 0))
}
