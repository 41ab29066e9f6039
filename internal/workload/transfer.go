package workload

import (
	"errors"
	"math/rand/v2"
	"sync/atomic"

	"medley/internal/txengine"
)

// transferScenario moves value between accounts split across two
// independent maps (checking and savings) — the paper's Figure 3 shape —
// with contention set by the account count (Config.Scale shrinks it toward
// a handful of hot accounts). Each transfer reads the source balance,
// aborts for business reasons when it is short, and otherwise writes both
// maps in one transaction; one in ten transactions is a read-only audit.
// The post-run audit sums every balance: any drift from the preloaded total
// is an atomicity violation.
var transferScenario = Scenario{
	Key:    "transfer",
	Doc:    "atomic cross-map transfers at configurable contention",
	CanRun: needDynamicTx,
	run:    runTransfer,
}

const startBalance = 1_000

func runTransfer(eng txengine.Engine, caps txengine.Caps, cfg Config) (Result, error) {
	kind := mapKind(caps)
	accounts := cfg.accounts()
	checking, err := eng.NewUintMap(txengine.MapSpec{Kind: kind, Buckets: int(accounts)})
	if err != nil {
		return Result{}, err
	}
	savings, err := eng.NewUintMap(txengine.MapSpec{Kind: kind, Buckets: int(accounts)})
	if err != nil {
		return Result{}, err
	}

	hints := !cfg.NoHints
	loader := eng.NewWorker(cfg.threads())
	const chunk = 256
	var hintKeys []uint64
	for lo := uint64(0); lo < accounts; lo += chunk {
		hi := min(lo+chunk, accounts)
		if hints {
			// A load chunk's keys are known up front; pre-declare them
			// (past the latch cap, so the load runs unlatched).
			hintKeys = hintKeys[:0]
			for a := lo; a < hi; a++ {
				hintKeys = append(hintKeys, a)
			}
			txengine.HintKeys(loader, hintKeys...)
		}
		if err := loader.Run(func() error {
			for a := lo; a < hi; a++ {
				checking.Put(loader, a, startBalance)
				savings.Put(loader, a, startBalance)
			}
			return nil
		}); err != nil {
			return Result{}, err
		}
	}
	total := 2 * accounts * startBalance

	var transfers, audits, insufficient atomic.Uint64
	res := cfg.drive(eng, func(tid int) func() uint64 {
		tx := eng.NewWorker(tid)
		rng := rand.New(rand.NewPCG(cfg.seed(), uint64(tid)+1))
		// Accounts draw uniformly by default; Config.ZipfS > 1 skews the
		// draws toward a few hot accounts (the contention knob of the latch
		// measurements — under skew, the hot accounts' transfers wait for
		// each other's latch stripes instead of aborting each other).
		draw := func() uint64 { return rng.Uint64N(accounts) }
		if cfg.ZipfS > 1 {
			z := rand.NewZipf(rng, cfg.ZipfS, 1, accounts-1)
			draw = z.Uint64
		}
		var hintKeys [2]uint64 // reused so hinting allocates nothing per txn
		return func() uint64 {
			from := draw()
			to := draw()
			// Both account keys are known before the transaction begins —
			// the transfer shape's planner hint. On the Medley family a
			// transfer between two accounts runs under the keys' latches;
			// elsewhere HintKeys is a no-op.
			if hints {
				hintKeys[0], hintKeys[1] = from, to
				txengine.HintKeys(tx, hintKeys[:]...)
			}
			if rng.IntN(10) == 0 {
				// Audit: one consistent read of an account pair.
				tx.RunRead(func() {
					checking.Get(tx, from)
					savings.Get(tx, to)
				})
				audits.Add(1)
				return 1
			}
			amt := uint64(rng.IntN(100) + 1)
			// Alternate direction so neither map drains over a long run.
			src, dst := checking, savings
			if rng.IntN(2) == 0 {
				src, dst = savings, checking
			}
			err := tx.Run(func() error {
				c, ok := src.Get(tx, from)
				if !ok {
					return nil // doomed attempt on a blocking engine; retried
				}
				if c < amt {
					return tx.Abort() // insufficient funds: business abort
				}
				src.Put(tx, from, c-amt)
				s, _ := dst.Get(tx, to)
				dst.Put(tx, to, s+amt)
				return nil
			})
			switch {
			case err == nil:
				transfers.Add(1)
				return 1
			case errors.Is(err, txengine.ErrBusinessAbort):
				// Deliberately completed work: the transfer ran and chose
				// not to happen.
				insufficient.Add(1)
				return 1
			default:
				return 0
			}
		}
	})

	// Post-run audit: money is conserved iff every transfer was atomic.
	audit := eng.NewWorker(cfg.threads() + 1)
	sum := uint64(0)
	for a := uint64(0); a < accounts; a++ {
		c, _ := checking.Get(audit, a)
		s, _ := savings.Get(audit, a)
		sum += c + s
	}
	imbalance := sum - total
	if sum < total {
		imbalance = total - sum
	}

	res.Aux = []AuxCount{
		{"transfers", transfers.Load()},
		{"audits", audits.Load()},
		{"insufficient", insufficient.Load()},
		{"imbalance", imbalance},
	}
	return res, nil
}
