// Command txload drives a txserver over the internal/server wire protocol
// and reports end-to-end throughput and latency percentiles, reusing the
// same HDR histogram machinery as the in-process -lat tables so the numbers
// stay comparable.
//
// Each TCP connection is driven by one goroutine keeping a fixed window of
// requests in flight (closed loop). The window is -pipeline per connection,
// or -clients spread across the connections when set (so "-clients 1024
// -conns 128" models 1024 logical closed-loop clients on 128 pipelined
// connections). -rate switches to an open loop: requests are injected at a
// fixed aggregate rate, decoupled from completions, up to the window (at
// saturation the window caps injection and the server's RETRY shedding
// becomes visible in the counts). The op mix is -readpct Gets against Puts,
// keys drawn uniformly or Zipf-skewed; -warmup discards ramp-up samples
// from the histograms and counts.
//
// -txn folds multi-op transactions into the mix: that percentage of
// requests are transfer-style Txn batches (read + add/add transfer between
// two accounts + a write stamp) over a small account region of the
// keyspace, seeded with balance before the drivers start. Their footprints
// ride the wire protocol's op lists, so on Medley-family engines the server
// pre-declares each transfer's key set — the latch path under end-to-end
// network load. Underflowed transfers surface
// as ABORTED, which the counts report separately.
//
// Shed responses (RETRY, and DRAINING with a reconnect first) are honored:
// the exact request is re-sent after a capped exponential backoff with
// jitter, and no fresh work is injected while a retry is waiting — backoff
// genuinely reduces the offered load instead of shifting it. Re-sends are
// tallied as retries. A connection that fails mid-flight is redialed with
// the same backoff; requests that were in flight are tallied as unknown
// (their outcome is ambiguous, so they are neither re-sent nor counted ok).
//
// Exits non-zero if the server acknowledged nothing (a smoke-test guard).
//
// Examples:
//
//	txload -conns 64 -pipeline 8 -dur 2s
//	txload -conns 1024 -pipeline 8 -readpct 90 -zipf 1.2 -lat
//	txload -clients 1024 -conns 128 -warmup 1s -dur 5s -lat -json
//	txload -rate 50000 -conns 64 -pipeline 16 -lat   # open loop
//	txload -txn 20 -conns 64 -pipeline 8 -lat        # 20% transfer txns
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"

	"medley/internal/metrics"
	"medley/internal/server"
)

// counts tallies a driver's measured responses; its fields name the text
// line's and the -json object's keys.
type counts struct {
	OK, Retry, Retries, Draining, Aborted, Unknown uint64
	Errs                                           uint64 `metric:"errors"`
	Reconnects                                     uint64
}

func main() {
	addr := flag.String("addr", "127.0.0.1:7433", "txserver address")
	conns := flag.Int("conns", 64, "TCP connections (one driver goroutine each)")
	clients := flag.Int("clients", 0, "total closed-loop clients spread across the connections (0: -pipeline per connection)")
	pipeline := flag.Int("pipeline", 1, "requests in flight per connection when -clients is 0")
	readPct := flag.Int("readpct", 90, "percentage of Gets (the rest are Puts)")
	txnPct := flag.Int("txn", 0, "percentage of requests that are multi-op transfer Txn batches (the rest follow -readpct)")
	zipfS := flag.Float64("zipf", 0, "Zipf key-skew exponent (>1.0; 0: uniform)")
	keys := flag.Uint64("keys", 100_000, "keyspace size")
	dur := flag.Duration("dur", 2*time.Second, "measurement duration")
	warmup := flag.Duration("warmup", 0, "ramp-up before measurement; its samples are discarded")
	rate := flag.Int("rate", 0, "open loop: aggregate target requests/s, split across the active connections with the remainder spread 1 req/s each (0: closed loop)")
	seed := flag.Uint64("seed", 1, "rng seed")
	lat := flag.Bool("lat", false, "record per-request latency (p50/p99)")
	jsonOut := flag.Bool("json", false, "emit one JSON result object instead of text")
	flag.Parse()

	if *conns < 1 || *pipeline < 1 || *clients < 0 || *readPct < 0 || *readPct > 100 || *txnPct < 0 || *txnPct > 100 {
		fmt.Fprintln(os.Stderr, "bad flags: want -conns>=1, -pipeline>=1, -clients>=0, -readpct 0-100, -txn 0-100")
		os.Exit(2)
	}
	if *zipfS != 0 && *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "bad -zipf: the skew exponent must be > 1.0 (or 0 for uniform)")
		os.Exit(2)
	}

	// Per-connection windows: -clients distributed as evenly as possible,
	// or -pipeline everywhere.
	windows := make([]int, *conns)
	for i := range windows {
		windows[i] = *pipeline
	}
	if *clients > 0 {
		for i := range windows {
			windows[i] = *clients / *conns
			if i < *clients%*conns {
				windows[i]++
			}
		}
	}

	// Open-loop pacing: split -rate across the connections that have a
	// window, spreading the remainder one req/s at a time so the aggregate
	// hits the target exactly. A connection whose share rounds to zero stays
	// idle (it must not fall back to closed-loop injection).
	rates := make([]int, *conns)
	if *rate > 0 {
		active := 0
		for _, w := range windows {
			if w > 0 {
				active++
			}
		}
		base, extra := *rate/active, *rate%active
		j := 0
		for i := range windows {
			if windows[i] == 0 {
				continue
			}
			rates[i] = base
			if j < extra {
				rates[i]++
			}
			j++
		}
	}

	// Transfer transactions run over a small account region so contention is
	// real; seed the balances before any driver starts, so early transfers
	// aren't all underflow aborts.
	accounts := min(*keys, txnAccounts)
	if *txnPct > 0 {
		if err := seedAccounts(*addr, accounts); err != nil {
			fmt.Fprintln(os.Stderr, "txload: seeding accounts:", err)
			os.Exit(1)
		}
	}

	var (
		mu     sync.Mutex
		total  counts
		merged metrics.Hist
		wg     sync.WaitGroup
	)
	start := time.Now()
	measureStart := start.Add(*warmup)
	deadline := start.Add(*warmup + *dur)
	for i := 0; i < *conns; i++ {
		if windows[i] == 0 || (*rate > 0 && rates[i] == 0) {
			continue // no window or no rate share: this one stays idle
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, h, got := drive(*addr, windows[i], i, *readPct, *txnPct, accounts,
				*zipfS, *keys, *seed, rates[i], *lat, measureStart, deadline)
			mu.Lock()
			metrics.Add(&total, got)
			if h != nil {
				merged.Merge(h)
			}
			mu.Unlock()
			if c != nil {
				c.Close()
			}
		}(i)
	}
	wg.Wait()
	el := time.Since(measureStart)
	if el > *dur {
		el = *dur // workers stop sending at the deadline; don't bill the tail drain
	}

	tput := float64(total.OK) / el.Seconds()
	p50, p99 := merged.Percentile(0.50), merged.Percentile(0.99)
	if *jsonOut {
		out := map[string]any{
			"conns": *conns, "clients": *clients, "pipeline": *pipeline,
			"readpct": *readPct, "txnpct": *txnPct, "zipf": *zipfS, "rate": *rate,
			"secs": el.Seconds(), "throughput": tput,
		}
		for _, f := range metrics.Fields(total) {
			out[f.Name] = f.Value
		}
		if *lat {
			out["p50_us"] = float64(p50) / 1e3
			out["p99_us"] = float64(p99) / 1e3
		}
		json.NewEncoder(os.Stdout).Encode(out)
	} else {
		fmt.Printf("txload: %d conns, %s in %.2fs — %.0f req/s", *conns, metrics.Format(total), el.Seconds(), tput)
		if *lat {
			fmt.Printf(" p50=%v p99=%v", p50, p99)
		}
		fmt.Println()
	}
	if total.OK == 0 {
		fmt.Fprintln(os.Stderr, "txload: zero acknowledged requests")
		os.Exit(1)
	}
}

// txnAccounts caps the transfer-transaction account region: small enough to
// contend, large enough to shard. Stamp keys live in the region above it.
const txnAccounts = uint64(1024)

// txnSeedBalance is each account's starting balance. Large enough that a
// run's worth of net outflow rarely underflows (underflows abort cleanly).
const txnSeedBalance = uint64(1_000_000)

// seedAccounts puts the starting balance on every transfer account over one
// pipelined connection before the drivers start. Seed Puts are idempotent
// constants, so a window that is shed or loses its connection (including to
// an injected fault) is simply re-sent after a backoff.
func seedAccounts(addr string, accounts uint64) error {
	const window = 64
	const maxAttempts = 8
	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() {
		if c != nil {
			c.Close()
		}
	}()
	drop := func() {
		c.Close()
		c = nil
	}
	for lo := uint64(0); lo < accounts; lo += window {
		hi := min(lo+window, accounts)
		var lastErr error
	attempt:
		for a := 0; ; a++ {
			if a == maxAttempts {
				return fmt.Errorf("seed window %d..%d: %w", lo, hi, lastErr)
			}
			if a > 0 {
				time.Sleep(retry.Backoff(a - 1))
			}
			if c == nil {
				if c, err = server.Dial(addr, 5*time.Second); err != nil {
					lastErr = err
					continue
				}
			}
			for k := lo; k < hi; k++ {
				c.SendPut(k, txnSeedBalance)
			}
			if err := c.Flush(); err != nil {
				lastErr = err
				drop()
				continue
			}
			shed := false
			for k := lo; k < hi; k++ {
				r, err := c.Recv()
				if err != nil {
					lastErr = err
					drop()
					continue attempt
				}
				switch {
				case r.OK():
				case r.Status == server.StatusRetry || r.Status == server.StatusDraining:
					shed = true // note it, but keep the response stream in step
				default:
					return fmt.Errorf("seed put %d: status %d %s", k, r.Status, r.Err)
				}
			}
			if !shed {
				break
			}
			lastErr = fmt.Errorf("window shed by admission control")
		}
	}
	return nil
}

// reqDesc is one request held for its whole lifetime: in flight (the
// in-order FIFO the server's response stream is matched against), or queued
// for re-send after a shed response. Keeping the full request — not just a
// send timestamp — is what makes honoring StatusRetry possible.
type reqDesc struct {
	isTxn    bool
	isGet    bool
	key, val uint64
	ops      []server.TxnOp
	t0       time.Time // first send, for end-to-end latency (zero: not sampled)
	measured bool      // first sent inside the measurement window
	tries    int       // shed count so far, drives the backoff exponent
	nextAt   time.Time // earliest re-send time while queued for retry
}

// retry paces every re-send and redial with the default policy's Backoff, so
// drivers shed together don't storm back together.
var retry server.RetryPolicy

// drive runs one connection's closed- or open-loop window until the
// deadline. Responses arrive in request order (a server guarantee), so the
// in-flight window is a FIFO of request descriptors. Shed requests
// (RETRY/DRAINING — explicitly not executed) are queued and re-sent after a
// jittered backoff, during which no fresh work is injected; a DRAINING
// response additionally recycles the connection once the window empties. A
// mid-flight connection failure redials with the same backoff and counts
// the in-flight requests as unknown. Samples and counts before measureStart
// are discarded; a sample belongs to the measured window if its request was
// first sent inside it, and a retried request's latency runs from its first
// send — backoff waits are part of the price the client paid.
func drive(addr string, window, tid, readPct, txnPct int, accounts uint64, zipfS float64, keys, seed uint64,
	connRate int, lat bool, measureStart, deadline time.Time) (*server.Conn, *metrics.Hist, counts) {
	var got counts
	c, err := server.Dial(addr, 5*time.Second)
	if err != nil {
		got.Errs++
		return nil, nil, got
	}
	rng := rand.New(rand.NewPCG(seed, uint64(tid)+1))
	draw := func() uint64 { return rng.Uint64N(keys) }
	if zipfS > 1 {
		z := rand.NewZipf(rng, zipfS, 1, keys-1)
		draw = z.Uint64
	}
	var h *metrics.Hist
	if lat {
		h = &metrics.Hist{}
	}

	pending := make([]*reqDesc, 0, window) // in flight, response order
	var retryq []*reqDesc                  // shed, waiting out a backoff
	recycle := false                       // server is draining: redial once the window empties
	var txSeq uint64

	newDesc := func(now time.Time) *reqDesc {
		d := &reqDesc{measured: !now.Before(measureStart)}
		if lat && d.measured {
			d.t0 = now
		}
		k := draw()
		if txnPct > 0 && rng.IntN(100) < txnPct {
			// A transfer: read the source, move one unit between two
			// accounts, stamp a per-connection sequence key. The op list is
			// the transaction's declared footprint, so Medley-family engines
			// latch exactly these keys up front.
			from, to := k%accounts, draw()%accounts
			if from == to {
				to = (to + 1) % accounts
			}
			txSeq++
			d.isTxn = true
			d.ops = []server.TxnOp{
				{Kind: server.TxnRead, Key: from},
				server.AddDelta(from, -1),
				server.AddDelta(to, +1),
				{Kind: server.TxnWrite, Key: accounts + uint64(tid)%accounts, Arg: txSeq},
			}
		} else if rng.IntN(100) < readPct {
			d.isGet = true
			d.key = k
		} else {
			d.key, d.val = k, k*3+1
		}
		return d
	}
	writeDesc := func(d *reqDesc) {
		switch {
		case d.isTxn:
			c.SendTxn(d.ops)
		case d.isGet:
			c.SendGet(d.key)
		default:
			c.SendPut(d.key, d.val)
		}
		pending = append(pending, d)
	}

	// reconnect redials after an I/O failure, backing off between attempts.
	// Everything in flight has an ambiguous outcome — the server may have
	// executed it and lost only the acknowledgment — so those requests are
	// tallied as unknown and NOT re-sent (transfers aren't idempotent).
	reconnect := func() bool {
		for _, d := range pending {
			if d.measured {
				got.Unknown++
			}
		}
		pending = pending[:0]
		c.Close()
		for k := 0; ; k++ {
			time.Sleep(retry.Backoff(k))
			if !time.Now().Before(deadline) || k >= 5 {
				got.Errs++
				return false
			}
			if nc, err := server.Dial(addr, 5*time.Second); err == nil {
				c = nc
				got.Reconnects++
				recycle = false
				return true
			}
		}
	}

	recv := func() bool {
		r, err := c.Recv()
		now := time.Now()
		d := pending[0]
		pending = pending[:copy(pending, pending[1:])]
		if err != nil {
			if d.measured {
				got.Unknown++
			}
			return false // caller redials; the rest of the window is marked there
		}
		switch r.Status {
		case server.StatusRetry, server.StatusDraining:
			// Explicitly not executed: safe to re-send, after a backoff.
			if d.measured {
				if r.Status == server.StatusRetry {
					got.Retry++
				} else {
					got.Draining++
					recycle = true // this instance is going away; redial when drained
				}
			} else if r.Status == server.StatusDraining {
				recycle = true
			}
			d.nextAt = now.Add(retry.Backoff(d.tries))
			d.tries++
			retryq = append(retryq, d)
			return true
		}
		if !d.measured {
			return true
		}
		if lat && r.Status == server.StatusOK && !d.t0.IsZero() {
			h.Record(now.Sub(d.t0))
		}
		switch r.Status {
		case server.StatusOK:
			got.OK++
		case server.StatusAborted:
			got.Aborted++
		default:
			got.Errs++
		}
		return true
	}

	// Open-loop pacing: this connection's share of the aggregate rate.
	var interval time.Duration
	next := time.Now()
	if connRate > 0 {
		interval = time.Duration(int64(time.Second) / int64(connRate))
	}
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		sent := false
		for len(pending) < window {
			if len(retryq) > 0 {
				// Re-sends take priority over fresh work, and while the head
				// retry is still backing off nothing fresh is injected in its
				// place — shed load genuinely drops instead of shifting.
				d := retryq[0]
				if now.Before(d.nextAt) {
					break
				}
				retryq = retryq[:copy(retryq, retryq[1:])]
				got.Retries++
				writeDesc(d)
				sent = true
				continue
			}
			if interval > 0 {
				if now.Before(next) {
					break
				}
				next = next.Add(interval)
			}
			writeDesc(newDesc(now))
			sent = true
			if interval == 0 && len(pending) < window {
				now = time.Now() // keep closed-loop stamps honest while filling
			}
		}
		if sent {
			if err := c.Flush(); err != nil {
				if !reconnect() {
					return c, h, got
				}
				continue
			}
		}
		if len(pending) == 0 {
			if recycle {
				// Drained the window of a draining server; move to a fresh
				// instance (or fail out) before re-sending the queue.
				if !reconnect() {
					return c, h, got
				}
				continue
			}
			// Ahead of schedule (open loop) or backing off (retry queue):
			// sleep until the next thing is due.
			wake := deadline
			if interval > 0 && next.Before(wake) {
				wake = next
			}
			if len(retryq) > 0 && retryq[0].nextAt.Before(wake) {
				wake = retryq[0].nextAt
			}
			time.Sleep(time.Until(wake))
			continue
		}
		if !recv() {
			if !reconnect() {
				return c, h, got
			}
		}
	}
	// Deadline passed: drain what's still in flight so the server isn't left
	// writing into a closed connection, but record nothing more.
	for len(pending) > 0 {
		if _, err := c.Recv(); err != nil {
			break
		}
		pending = pending[1:]
	}
	return c, h, got
}
