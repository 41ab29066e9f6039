package tpcc

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"medley/internal/core"
	"medley/internal/structures/fskiplist"
	"medley/internal/txengine"
)

// Minimal reproducer scaffolding for the newOrder spin.
func TestDebugSingleNewOrder(t *testing.T) {
	cfg := smallCfg()
	st, err := NewStore("medley", txengine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	Load(st, cfg)
	w := st.NewWorker(1)
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 50; i++ {
		attempts := 0
		err := w.RunTx(func(h Handle) error {
			attempts++
			if attempts > 20 {
				t.Fatalf("newOrder %d: %d retries — deterministic abort loop", i, attempts)
			}
			return NewOrder(h, cfg, rng, 1)
		})
		if err != nil && !errors.Is(err, txengine.ErrBusinessAbort) {
			t.Fatalf("newOrder %d: %v", i, err)
		}
	}
}

// Direct skiplist reproduction: get+put+get+put on the same key repeatedly
// inside one transaction (as newOrder does to stock rows).
func TestDebugRepeatedGetPutSameTx(t *testing.T) {
	mgr := core.NewTxManager()
	sl := fskiplist.New[uint64, int]()
	s := mgr.Session()
	sl.Put(s, 1, 0)
	sl.Put(s, 2, 0)
	for i := 0; i < 50; i++ {
		attempts := 0
		err := s.Run(func() error {
			attempts++
			if attempts > 20 {
				t.Fatalf("iter %d: deterministic abort loop", i)
			}
			for j := 0; j < 6; j++ {
				k := uint64(1 + j%2)
				v, ok := sl.Get(s, k)
				if !ok {
					return fmt.Errorf("missing key %d", k)
				}
				sl.Put(s, k, v+1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
