package metrics

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"
)

// resolution is the histogram's relative error bound, 2^-latSubBits.
const resolution = 1.0 / (1 << latSubBits)

// within reports whether got stands for want at the histogram's resolution:
// a bucket's lower bound, at most 2^-latSubBits of want below it.
func within(got, want time.Duration) bool {
	return got <= want && float64(want-got) <= resolution*float64(want)
}

// TestLatHist pins the histogram math the percentile mode relies on.
func TestLatHist(t *testing.T) {
	h := &Hist{}
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if p50 := h.Percentile(0.50); !within(p50, 500*time.Microsecond) {
		t.Errorf("p50 of uniform 1..1000us = %v, want 500us less at most 1/%d", p50, 1<<latSubBits)
	}
	p99 := h.Percentile(0.99)
	if !within(p99, 990*time.Microsecond) {
		t.Errorf("p99 of uniform 1..1000us = %v, want 990us less at most 1/%d", p99, 1<<latSubBits)
	}
	if h.Percentile(1.0) < p99 {
		t.Error("percentile not monotone")
	}
	var other Hist
	other.Record(time.Millisecond)
	h.Merge(&other)
	if h.Count() != 1001 {
		t.Errorf("merged count = %d, want 1001", h.Count())
	}
	if (&Hist{}).Percentile(0.99) != 0 {
		t.Error("empty histogram must report zero")
	}
}

// TestHistResolution: for every value from 1 ns to 1 h — a geometric sweep,
// and each power of two with its neighbours — the percentile of that one
// sample is at most 2^-latSubBits below it; and for a skewed sample, every
// percentile is within that of the exact sample of the same rank.
func TestHistResolution(t *testing.T) {
	var vals []time.Duration
	for v := 1.0; v <= float64(time.Hour); v *= 1.003 {
		vals = append(vals, time.Duration(v))
	}
	for e := 0; time.Duration(1)<<e <= time.Hour; e++ {
		p := time.Duration(1) << e
		vals = append(vals, p-1, p, p+1)
	}
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		var h Hist
		h.Record(v)
		if got := h.Percentile(0.5); !within(got, v) {
			t.Fatalf("one sample of %d ns reads %d ns: more than 1/%d below", v, got, 1<<latSubBits)
		}
	}

	rng := rand.New(rand.NewPCG(1, 2))
	var h Hist
	sample := make([]time.Duration, 20_000)
	for i := range sample {
		sample[i] = time.Duration(rng.ExpFloat64() * float64(50*time.Microsecond))
		h.Record(sample[i])
		if sample[i] == 0 {
			sample[i] = 1 // Record counts a zero as 1 ns
		}
	}
	slices.Sort(sample)
	for _, p := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
		rank := max(int(p*float64(len(sample))), 1)
		if got, want := h.Percentile(p), sample[rank-1]; !within(got, want) {
			t.Errorf("p%g = %v, the sample of that rank is %v", 100*p, got, want)
		}
	}
}

// TestLatHistWeighting pins the drive() latency fix: an iteration that
// completed c transactions contributes c samples (so multi-transaction
// iterations don't undercount) and zero-count iterations contribute none.
func TestLatHistWeighting(t *testing.T) {
	h := &Hist{}
	h.RecordN(time.Millisecond, 3)
	h.RecordN(time.Second, 0) // a lost conflict: no transactions completed
	h.Record(2 * time.Millisecond)
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4 (3 weighted + 1 single + 0 skipped)", h.Count())
	}
	// The 3-weighted 1ms samples dominate: the median must sit in the 1ms
	// bucket, not anywhere near the zero-weight 1s outlier.
	if p := h.Percentile(0.50); p > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want ~1ms (weighting broken)", p)
	}
	if p := h.Percentile(0.99); p > 4*time.Millisecond {
		t.Fatalf("p99 = %v: the zero-count 1s iteration leaked in", p)
	}
}
