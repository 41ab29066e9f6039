package main

import "time"

// The reference box is a 2-vCPU VM whose speed belongs to its neighbours:
// the same binary and seed ran at 0.9 M or 1.8 M req/s from one quarter of an
// hour to the next, all workloads and all percentiles together, which no
// estimator inside a run can repair. So every run measures the machine
// beside the system. Each load-generating goroutine owns a reference
// workload — refOps lookups and replacements on a 64 Ki-entry map of the
// standard library, code no change to this repository can touch — and runs it
// for ~2 ms in every 500 ms of the measured window. The run's end-to-end
// timings are then stated at the reference speed refNsOp: throughput is
// multiplied, and set-up time divided, by (median measured ns per reference
// operation / refNsOp).
//
// Why a map and not a memory or ALU loop: 160 runs across one of the box's
// mood swings (README, "Steadiness") fitted throughput ∝ reading^-β with β
// = 0.96, 0.95, 1.2, 1.4 on the four workloads for this reference, against
// 1.5-4 for dependent loads through 64 MiB, a streaming sum, or an ALU loop:
// hashing, branches, independent loads and small allocations slow down the
// way the system under test does.

const (
	refKeys = 1 << 16
	refOps  = 1 << 14
	// refNsOp is a calm hour on the reference box. It only fixes the unit:
	// a comparison of two commits divides it out.
	refNsOp = 90.0
)

type refNode struct{ key, val uint64 }

// reference is one goroutine's reference workload and the samples it took.
type reference struct {
	m    map[uint64]*refNode
	x    uint64 // xorshift state
	sum  uint64 // keeps the lookups alive
	nsOp []float64
}

func newReference(seed uint64) *reference {
	r := &reference{m: make(map[uint64]*refNode, refKeys), x: 88172645463325252 + seed, nsOp: make([]float64, 0, 512)}
	for k := uint64(0); k < refKeys; k++ {
		r.m[k] = &refNode{key: k, val: k}
	}
	return r
}

// sample runs refOps operations — seven lookups to one replacement by a
// freshly allocated node — on the calling goroutine and records the time per
// operation.
func (r *reference) sample() {
	x, sum := r.x, r.sum
	began := time.Now()
	for n := 0; n < refOps; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		key := x & (refKeys - 1)
		if n&7 == 0 {
			r.m[key] = &refNode{key: key, val: x}
		} else if nd := r.m[key]; nd != nil {
			sum += nd.val
		}
	}
	took := time.Since(began)
	r.x, r.sum = x, sum
	if len(r.nsOp) < cap(r.nsOp) {
		r.nsOp = append(r.nsOp, float64(took.Nanoseconds())/refOps)
	}
}

// speedFactor is how much slower than the reference speed the machine ran
// while the given goroutines sampled it: the median of their samples over
// refNsOp. Multiplying a rate by it states the rate at reference speed.
func speedFactor(refs ...*reference) (factor, nsOp float64) {
	var all []float64
	for _, r := range refs {
		all = append(all, r.nsOp...)
	}
	if len(all) == 0 {
		return 1, refNsOp
	}
	_, nsOp, _ = quartiles(all)
	return nsOp / refNsOp, nsOp
}
