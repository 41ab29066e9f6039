package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"
)

// samples is an exact latency recorder: every sample is kept, in nanoseconds,
// in a buffer allocated before measurement starts. Nothing is quantised (the
// repository's workload.Hist rounds to 12%) and nothing grows while the clock
// runs (a growing slice stamps multi-millisecond pauses on the tail). Samples
// beyond the buffer are counted, not stored.
type samples struct {
	ns      []uint32
	dropped int
}

func newSamples(capacity int) *samples { return &samples{ns: make([]uint32, 0, capacity)} }

func (s *samples) add(ns int64) {
	if len(s.ns) == cap(s.ns) {
		s.dropped++
		return
	}
	s.ns = append(s.ns, uint32(min(max(ns, 0), math.MaxUint32)))
}

// mergeSorted concatenates the recorders' samples into one sorted slice.
func mergeSorted(parts ...*samples) []uint32 {
	n := 0
	for _, p := range parts {
		n += len(p.ns)
	}
	all := make([]uint32, 0, n)
	for _, p := range parts {
		all = append(all, p.ns...)
	}
	slices.Sort(all)
	return all
}

// percentileUs is the nearest-rank percentile of sorted nanosecond samples,
// in microseconds; 0 when there are none.
func percentileUs(sorted []uint32, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	return float64(sorted[min(max(i, 0), len(sorted)-1)]) / 1e3
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (the
// exclusive method), which is what the driver uses to judge spread.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := slices.Clone(values)
	slices.Sort(v)
	m := len(v)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		j = min(max(j, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// counter is a per-goroutine completion counter on its own cache lines: the
// owner adds, the coordinator reads it at phase boundaries.
type counter struct {
	n atomic.Int64
	_ [120]byte
}

// sleepUntil sleeps to an absolute deadline. The benchmark never spins: a
// Gosched loop on two Ps starves the netpoller and stamps a 3-4 ms tail on
// every rate.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// span is one timed interval of the traced run: spans of one request or
// transaction share Trace; Parent is the ID of the span that caused it (0 for
// a root). Times are nanoseconds since the run's start.
type span struct {
	Trace  uint64 `json:"trace"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps a goroutine's spans in a preallocated buffer; once full,
// further spans are dropped (and counted) rather than grown into.
type spanLog struct {
	spans   []span
	dropped int
}

func newSpanLog(capacity int) *spanLog { return &spanLog{spans: make([]span, 0, capacity)} }

func (l *spanLog) add(trace uint64, id, parent uint32, name string, start, end int64) {
	if l == nil {
		return
	}
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{trace, id, parent, name, start, end})
}

// writeSpans writes the logs as JSON lines to dir/name, creating dir.
func writeSpans(dir, name string, logs ...*spanLog) (path string, n int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", 0, fmt.Errorf("trace dir: %w", err)
	}
	path = filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", 0, fmt.Errorf("trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		if l == nil {
			continue
		}
		for i := range l.spans {
			if err := enc.Encode(&l.spans[i]); err != nil {
				f.Close()
				return path, n, fmt.Errorf("trace write: %w", err)
			}
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return path, n, fmt.Errorf("trace flush: %w", err)
	}
	return path, n, f.Close()
}
