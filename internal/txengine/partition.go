package txengine

import "math/bits"

// Sharding is a partition of maps and devices, not of transactions. A
// -sharded engine (medley-sharded, txmontage-sharded, original-sharded) is its
// base engine with S sub-maps behind every map it builds: each key routes to
// one of them (shardOf), and the caller's Tx passes through untouched. The
// engine keeps its one TxManager, a worker its one session, and a transaction
// over keys on several shards is one MCNS descriptor exactly as over several
// structures of an unsharded engine: one commit, one status CAS, nothing
// locked per shard. What the partition buys is smaller sub-maps and, on
// txmontage-sharded, one device per shard.
//
// # Sharded persistence (txmontage-sharded)
//
// Every shard's sub-maps live on an epoch system and device of their own, and
// all S epoch systems share the engine's one montage.EpochClock, to which the
// manager is attached. A transaction pins ONE epoch, tags the payloads it
// writes on every device with it, and commits only if that epoch is still
// current (its single epoch validator): a clock tick anywhere between its
// first operation and its commit aborts it, so no transaction is persisted
// across two recovery cuts and no lock is needed to say so. The engine's
// advancer and Sync advance all S systems together (montage.AdvanceTogether),
// so every device reaches the same durable frontier; recovery cuts the domain
// at the minimum of the per-device frontiers (montage.Recover), so state one
// device persisted ahead of the others is discarded and a transaction is never
// recovered torn. Plain txmontage is the case S = 1.
//
// # Declared keys
//
// A worker on a -sharded engine may declare the keys of its next Run
// (HintKeys). A declaration whose keys route to two shards or more, and that
// names at most latchMaxKeys keys, latches them (latch.go) at the head of
// every attempt, so declared transactions with overlapping hot keys queue FIFO
// instead of aborting each other. Latches only schedule; atomicity never
// depends on them, which is why undeclared and oversized footprints simply run
// without.

// DefaultShards is the shard count used when Config.Shards is unset.
const DefaultShards = 4

// shardCount is the S of a -sharded engine built from cfg.
func shardCount(cfg Config) int {
	if cfg.Shards > 0 {
		return cfg.Shards
	}
	return DefaultShards
}

// shardOf routes a key to its shard among n: Fibonacci hashing spreads
// sequential keys uniformly, and the multiply-high range reduction maps the
// hash onto [0, n) without the integer division a modulo would cost on every
// operation.
func shardOf(k uint64, n int) int {
	h := k * 0x9e3779b97f4a7c15
	h ^= h >> 32
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// subSpec divides a caller's sizing hints across n shards.
func subSpec(spec MapSpec, n int) MapSpec {
	if n == 1 {
		return spec
	}
	if spec.Buckets > 0 {
		spec.Buckets = max(spec.Buckets/n, 16)
	}
	if spec.Stripes > 0 {
		spec.Stripes = max(spec.Stripes/n, 8)
	}
	return spec
}

// partition builds the n sub-maps of one map with mk and returns them as one:
// keys route among them by shardOf. One shard is the sub-map itself.
func partition[V any](n int, mk func(shard int) Map[V]) Map[V] {
	if n == 1 {
		return mk(0)
	}
	m := &shardedMap[V]{sub: make([]Map[V], n)}
	for i := range m.sub {
		m.sub[i] = mk(i)
	}
	return m
}

// shardedMap is a map of n > 1 shards: one sub-map per shard, each holding
// only the keys routed to it.
type shardedMap[V any] struct {
	sub []Map[V]
}

// Range walks the sub-maps in shard order; it is there for the snapshot
// tier's start, which only wraps engines whose sub-maps have one.
func (m *shardedMap[V]) Range(f func(uint64, V) bool) {
	for _, sub := range m.sub {
		more := true
		sub.(rangeMap[V]).Range(func(k uint64, v V) bool {
			more = f(k, v)
			return more
		})
		if !more {
			return
		}
	}
}

func (m *shardedMap[V]) Get(tx Tx, k uint64) (V, bool) {
	return m.sub[shardOf(k, len(m.sub))].Get(tx, k)
}

func (m *shardedMap[V]) Put(tx Tx, k uint64, v V) (V, bool) {
	return m.sub[shardOf(k, len(m.sub))].Put(tx, k, v)
}

func (m *shardedMap[V]) Insert(tx Tx, k uint64, v V) bool {
	return m.sub[shardOf(k, len(m.sub))].Insert(tx, k, v)
}

func (m *shardedMap[V]) Remove(tx Tx, k uint64) (V, bool) {
	return m.sub[shardOf(k, len(m.sub))].Remove(tx, k)
}
