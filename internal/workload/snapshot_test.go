package workload

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"medley/internal/txengine"
)

// TestValidateZipfS pins the Config.Validate rejection: a Zipf exponent in
// (0, 1] used to fall back silently (transfer to uniform draws, cache to the
// default skew), invalidating any -zipf sweep without a word.
func TestValidateZipfS(t *testing.T) {
	for _, s := range []float64{0.5, 1.0, 0.0001} {
		if err := (Config{ZipfS: s}).Validate(); err == nil {
			t.Errorf("ZipfS=%g passed Validate", s)
		}
		if _, err := Run("transfer", "medley", Config{Threads: 2, Dur: 10 * time.Millisecond, ZipfS: s}); err == nil {
			t.Errorf("ZipfS=%g passed Run", s)
		}
	}
	for _, s := range []float64{0, 1.2, 3} {
		if err := (Config{ZipfS: s}).Validate(); err != nil {
			t.Errorf("ZipfS=%g rejected: %v", s, err)
		}
	}
}

// TestSnapshotGate: -snapshot on an engine without CapSnapshot must fail
// fast with ErrUnsupported, like the CanRun gates.
func TestSnapshotGate(t *testing.T) {
	cfg := smokeConfig()
	cfg.Snapshot = true
	_, err := Run("cache", "onefile", cfg)
	if !errors.Is(err, txengine.ErrUnsupported) {
		t.Fatalf("snapshot on onefile returned %v, want ErrUnsupported", err)
	}
}

// TestSnapshotCacheSmoke runs the headline configuration — the cache
// scenario at 95% reads with snapshot probes — on the Medley family and
// asserts the bugfix's observable contract: snapshot reads happened, none
// fell back to OCC, none were served torn (the stale audit), and the cache
// invariants still hold.
func TestSnapshotCacheSmoke(t *testing.T) {
	for _, tc := range []struct {
		engine  string
		devices int
	}{{"medley", 0}, {"medley-sharded", 0}, {"txmontage", 1}, {"txmontage", 4}} {
		t.Run(fmt.Sprintf("%s/devices=%d", tc.engine, tc.devices), func(t *testing.T) {
			cfg := smokeConfig()
			cfg.ReadPct = 95
			cfg.Snapshot = true
			cfg.Engine.Shards = tc.devices
			res, err := Run("cache", tc.engine, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.SnapshotReads == 0 {
				t.Fatalf("no snapshot reads counted: %+v", res.Stats)
			}
			if n := res.AuxN("snapfallback"); n != 0 {
				t.Errorf("snapfallback=%d on a CapSnapshot engine (%s)", n, res.AuxString())
			}
			if n := res.AuxN("stale"); n != 0 {
				t.Errorf("stale=%d cache entries (%s)", n, res.AuxString())
			}
			if res.AuxN("hits")+res.AuxN("misses") == 0 {
				t.Errorf("cache made no lookups: %s", res.AuxString())
			}
		})
	}
}
