package txengine

// Footprint declarations for the sharded runtime.
//
// A cross-shard transaction on a sharded engine normally discovers its shard
// set by optimistic execution: the first attempt runs single-shard, and every
// operation that touches a shard outside the known set restarts the attempt
// with the union (Stats.CrossShardRestarts). Discovery is correct but pays
// one wasted execution per footprint growth — on a transfer-style workload at
// eight shards, the overwhelming majority of transactions restart exactly
// once just to learn their second shard.
//
// Workloads that know their keys up front — a transfer knows both accounts
// before the transaction begins — remove that cost by declaring them
// (KeyHinter/HintKeys, QueueHinter/HintQueues). The sharded engine routes the
// keys, and the next Run opens its linked sub-transactions on the whole
// declared shard set before the first attempt, skipping discovery entirely.
//
// A wrong declaration is safe by construction: an attempt that touches a
// shard outside its declared set restarts like discovery does, from the
// declared set plus the escaped shard. Declarations that held and that were
// escaped are surfaced as Stats.FootprintHits / FootprintMisses.

// KeyHinter is the optional Tx extension of the sharded engines: HintKeys
// pre-declares map keys the worker's next Run will touch, so the transaction
// can open its whole shard set up front instead of discovering it by restart
// — and latch exactly those keys, so declared transactions on the same hot
// keys queue instead of aborting each other (see latch.go). The keys are
// sorted and deduplicated once, at declaration time. Successive HintKeys /
// HintQueues calls before a Run accumulate into one declaration; the next
// Run consumes it whole. Hinting inside Run is a no-op.
type KeyHinter interface {
	HintKeys(keys ...uint64)
}

// QueueHinter is the queue-side companion of KeyHinter: HintQueues
// pre-declares transactional queues the worker's next Run will touch, so
// the attempt covers the queue's home shard from the start and serializes
// same-queue traffic through the queue's synthetic latch key.
type QueueHinter interface {
	HintQueues(qs ...Queue[uint64])
}

// HintQueues forwards a queue footprint hint to tx when its engine supports
// hints; elsewhere it is a no-op, like HintKeys.
func HintQueues(tx Tx, qs ...Queue[uint64]) {
	if h, ok := tx.(QueueHinter); ok {
		h.HintQueues(qs...)
	}
}

// HintKeys forwards a footprint hint to tx when its engine supports hints
// (the sharded decorators); on every other engine it is a no-op, so portable
// workload code can hint unconditionally. Keys that route to a single shard
// produce no pre-declaration — the single-shard fast path is already
// optimal — so over-hinting is harmless.
func HintKeys(tx Tx, keys ...uint64) {
	if h, ok := tx.(KeyHinter); ok {
		h.HintKeys(keys...)
	}
}

// insertShard inserts s into an ascending shard set in place, returning the
// (possibly grown) slice. Shard sets are tiny — a handful of ints — so the
// linear scan beats any cleverness.
func insertShard(set []int, s int) []int {
	for i, v := range set {
		if v == s {
			return set
		}
		if v > s {
			set = append(set, 0)
			copy(set[i+1:], set[i:])
			set[i] = s
			return set
		}
	}
	return append(set, s)
}
