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
// Every connection is a retrying server.Conn and follows its one rule:
// shed requests are re-sent after a jittered backoff, during which no
// fresh work reaches the server; after a connection failure, reads that
// were in flight are re-sent on a redialed connection and writes that were
// are tallied as unknown, never re-sent nor counted ok. Re-sends are
// tallied as retries; a request shed on every attempt counts as an error.
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
	"errors"
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

	if *conns < 1 || *pipeline < 1 || *clients < 0 || *readPct < 0 || *readPct > 100 || *txnPct < 0 || *txnPct > 100 || *keys < 1 {
		fmt.Fprintln(os.Stderr, "bad flags: want -conns>=1, -pipeline>=1, -clients>=0, -readpct 0-100, -txn 0-100, -keys>=1")
		os.Exit(2)
	}
	if *zipfS != 0 && *zipfS <= 1 {
		fmt.Fprintln(os.Stderr, "bad -zipf: the skew exponent must be > 1.0 (or 0 for uniform)")
		os.Exit(2)
	}

	// Per-connection windows: -clients distributed as evenly as possible,
	// or -pipeline everywhere. The first active connections have a window.
	windows, active := make([]int, *conns), *conns
	for i := range windows {
		windows[i] = *pipeline
	}
	if *clients > 0 {
		active = min(*clients, *conns)
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
	for i := 0; *rate > 0 && i < active; i++ {
		rates[i] = *rate / active
		if i < *rate%active {
			rates[i]++
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
			h, got := drive(*addr, windows[i], i, *readPct, *txnPct, accounts,
				*zipfS, *keys, *seed, rates[i], *lat, measureStart, deadline)
			mu.Lock()
			metrics.Add(&total, got)
			if h != nil {
				merged.Merge(h)
			}
			mu.Unlock()
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
// pipelined connection before the drivers start. The client re-sends shed
// Puts; a Put whose outcome a connection failure left unknown is let be —
// an account it did not seed only makes its transfers abort.
func seedAccounts(addr string, accounts uint64) error {
	const window = 64
	c := server.NewClient(addr, server.RetryPolicy{})
	defer c.Close()
	for lo := uint64(0); lo < accounts; lo += window {
		hi := min(lo+window, accounts)
		for k := lo; k < hi; k++ {
			c.SendPut(k, txnSeedBalance)
		}
		c.Flush() // a failure comes back through Recv
		for k := lo; k < hi; k++ {
			r, err := c.Recv()
			switch {
			case errors.Is(err, server.ErrUnknownOutcome):
			case err != nil:
				return fmt.Errorf("seed window %d..%d: %w", lo, hi, err)
			case !r.OK():
				return fmt.Errorf("seed window %d..%d: status %d %s", lo, hi, r.Status, r.Err)
			}
		}
	}
	return nil
}

// drive runs one connection's closed- or open-loop window until the
// deadline. out holds each outstanding request's issue time by id, since a
// re-sent request is answered after later ones. Samples and counts before
// measureStart are discarded: a request is measured if it was issued inside
// the measured window, and its latency runs from its issue — backoff
// waits, its own or one it queued behind, are part of the price the client
// paid. The retry, draining, retries and reconnects counts are the
// client's tallies, retry and draining from measureStart on.
func drive(addr string, window, tid, readPct, txnPct int, accounts uint64, zipfS float64, keys, seed uint64,
	connRate int, lat bool, measureStart, deadline time.Time) (*metrics.Hist, counts) {
	var got counts
	c := server.NewClient(addr, server.RetryPolicy{})
	defer c.Close()
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

	out := make(map[uint64]time.Time, window)
	var ops []server.TxnOp
	var txSeq uint64
	issue := func(now time.Time) {
		k := draw()
		if txnPct > 0 && rng.IntN(100) < txnPct {
			// A transfer: read the source, move one unit between two
			// accounts, stamp a per-connection sequence key. The op list is
			// the transaction's declared footprint, so Medley-family engines
			// latch these keys' stripes up front.
			from, to := k%accounts, draw()%accounts
			if from == to {
				to = (to + 1) % accounts
			}
			txSeq++
			ops = append(ops[:0],
				server.TxnOp{Kind: server.TxnRead, Key: from},
				server.AddDelta(from, -1),
				server.AddDelta(to, +1),
				server.TxnOp{Kind: server.TxnWrite, Key: accounts + uint64(tid)%accounts, Arg: txSeq},
			)
			out[c.SendTxn(ops)] = now
		} else if rng.IntN(100) < readPct {
			out[c.SendGet(k)] = now
		} else {
			out[c.SendPut(k, k*3+1)] = now
		}
	}

	// Open-loop pacing: this connection's share of the aggregate rate.
	var interval time.Duration
	next := time.Now()
	if connRate > 0 {
		interval = time.Duration(int64(time.Second) / int64(connRate))
	}
	var base server.ClientStats // the client's tallies when measurement began
	measuring := false
	for {
		now := time.Now()
		if !now.Before(deadline) {
			break
		}
		if !measuring && !now.Before(measureStart) {
			measuring, base = true, c.Stats()
		}
		for len(out) < window {
			if interval > 0 {
				if now.Before(next) {
					break
				}
				next = next.Add(interval)
			}
			issue(now)
			if interval == 0 && len(out) < window {
				now = time.Now() // keep closed-loop stamps honest while filling
			}
		}
		c.Flush() // a failure comes back through Recv
		if len(out) == 0 {
			// Ahead of schedule (open loop): sleep until the next request
			// is due.
			wake := next
			if deadline.Before(wake) {
				wake = deadline
			}
			time.Sleep(time.Until(wake))
			continue
		}
		r, err := c.Recv()
		if r == nil {
			got.Errs++ // nothing completed: the client is unusable
			break
		}
		now = time.Now()
		t0 := out[r.ID]
		delete(out, r.ID)
		if t0.Before(measureStart) {
			continue
		}
		switch {
		case errors.Is(err, server.ErrUnknownOutcome):
			got.Unknown++
		case err != nil:
			got.Errs++
		case r.Status == server.StatusOK:
			got.OK++
			if lat {
				h.Record(now.Sub(t0))
			}
		case r.Status == server.StatusAborted:
			got.Aborted++
		default:
			got.Errs++
		}
	}
	// Deadline passed: what is still outstanding is abandoned unrecorded,
	// with the connection.
	st := c.Stats()
	if !measuring {
		base = st
	}
	got.Retry = (st.Retries - st.Draining) - (base.Retries - base.Draining)
	got.Draining = st.Draining - base.Draining
	got.Retries, got.Reconnects = st.Resends, st.Reconnects
	return h, got
}
