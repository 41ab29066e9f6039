package workload

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"medley/internal/txengine"
)

func smokeConfig() Config {
	return Config{Threads: 4, Dur: 120 * time.Millisecond, Scale: 0.05, Seed: 7}
}

// TestSmoke runs every scenario on its full default engine series with a
// tiny configuration and asserts the invariants each scenario audits:
// no lost or duplicated jobs, no stale cache entries, no missing money.
// CI runs this as the workload smoke job. Where medley runs, so does
// medley-sharded, the alias of medley that the registry resolves but does
// not list, since the benchmark builds it by that name; where txmontage runs
// over one device, it runs over four too.
func TestSmoke(t *testing.T) {
	for _, sc := range Scenarios() {
		engines := Engines(sc.Key)
		if len(engines) == 0 {
			t.Fatalf("%s: empty default engine series", sc.Key)
		}
		if slices.Contains(engines, "medley") {
			engines = append(engines, "medley-sharded")
		}
		for _, engine := range engines {
			counts := []int{0}
			if engine == "txmontage" {
				counts = append(counts, 4)
			}
			for _, devices := range counts {
				name := sc.Key + "/" + engine
				if devices > 0 {
					name += fmt.Sprintf("/devices=%d", devices)
				}
				t.Run(name, func(t *testing.T) {
					cfg := smokeConfig()
					cfg.Shards = devices
					res, err := Run(sc.Key, engine, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if res.Txns == 0 {
						t.Fatal("no transactions completed")
					}
					if res.Throughput <= 0 {
						t.Fatalf("throughput %v", res.Throughput)
					}
					b, _ := txengine.Lookup(engine)
					if b.Caps.Has(txengine.CapTx) && res.Stats.Commits == 0 {
						t.Fatalf("transactional engine reported zero commits: %+v", res.Stats)
					}
					transactional := b.Caps.Has(txengine.CapTx | txengine.CapDynamicTx)
					switch sc.Key {
					case "workqueue":
						if transactional {
							for _, bad := range []string{"lost", "dup", "violations"} {
								if n := res.AuxN(bad); n != 0 {
									t.Errorf("%s=%d on a transactional engine (%s)", bad, n, res.AuxString())
								}
							}
						}
						if res.AuxN("produced") == 0 || res.AuxN("claimed") == 0 {
							t.Errorf("workqueue made no progress: %s", res.AuxString())
						}
					case "cache":
						if n := res.AuxN("stale"); n != 0 {
							t.Errorf("stale=%d cache entries after atomic invalidation (%s)", n, res.AuxString())
						}
						if res.AuxN("hits")+res.AuxN("misses") == 0 {
							t.Errorf("cache made no lookups: %s", res.AuxString())
						}
					case "transfer":
						if n := res.AuxN("imbalance"); n != 0 {
							t.Errorf("imbalance=%d: money not conserved (%s)", n, res.AuxString())
						}
						if res.AuxN("transfers") == 0 {
							t.Errorf("no transfers completed: %s", res.AuxString())
						}
					}
				})
			}
		}
	}
}

// TestKnobs drives the scenario tunables end to end: txmontage at an
// explicit device count, a hot transfer (few accounts), a skewed all-update
// cache mix, and latency percentiles — every audit must still hold.
func TestKnobs(t *testing.T) {
	cfg := smokeConfig()
	cfg.Shards = 8
	cfg.Accounts = 4 // four hot accounts: maximum cross-map contention
	cfg.Latency = true
	res, err := Run("transfer", "txmontage", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.AuxN("imbalance"); n != 0 {
		t.Errorf("hot transfer over 8 devices lost money: imbalance=%d (%s)", n, res.AuxString())
	}
	if res.AuxN("transfers") == 0 {
		t.Errorf("no transfers completed: %s", res.AuxString())
	}
	if res.P50 <= 0 || res.P99 < res.P50 {
		t.Errorf("latency percentiles not measured or inverted: p50=%v p99=%v", res.P50, res.P99)
	}

	cfg = smokeConfig()
	cfg.ZipfS = 2.0
	cfg.ReadPct = -1 // all updates
	res, err = Run("cache", "medley", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AuxN("hits")+res.AuxN("misses") != 0 {
		t.Errorf("ReadPct<0 still performed lookups: %s", res.AuxString())
	}
	if res.AuxN("updates") == 0 {
		t.Errorf("all-update mix made no updates: %s", res.AuxString())
	}
	if n := res.AuxN("stale"); n != 0 {
		t.Errorf("stale=%d under skewed updates (%s)", n, res.AuxString())
	}
	if res.P50 != 0 || res.P99 != 0 {
		t.Errorf("latency percentiles measured without Config.Latency: p50=%v p99=%v", res.P50, res.P99)
	}
}

// TestTransferConservation audits money conservation on the sharded engine
// across the latch matrix: shard counts 2 and 8, hinted (latched) and
// un-hinted (discovery, unlatched), with Zipf-skewed draws so cross-shard
// transfers pile onto a few hot accounts. Both commit through the
// linked-group path (shared commit CAS), so any atomicity hole there shows
// up as an imbalance here.
func TestTransferConservation(t *testing.T) {
	for _, shards := range []int{2, 8} {
		for _, noHints := range []bool{false, true} {
			name := "shards=2"
			if shards == 8 {
				name = "shards=8"
			}
			if noHints {
				name += "/nohints"
			} else {
				name += "/latch"
			}
			t.Run(name, func(t *testing.T) {
				cfg := smokeConfig()
				cfg.Shards = shards
				cfg.NoHints = noHints
				cfg.Accounts = 64 // small: most transfers cross shards
				cfg.ZipfS = 1.4   // skewed: hot accounts collide constantly
				res, err := Run("transfer", "medley-sharded", cfg)
				if err != nil {
					t.Fatal(err)
				}
				if n := res.AuxN("imbalance"); n != 0 {
					t.Errorf("imbalance=%d: money not conserved (%s)", n, res.AuxString())
				}
				if res.AuxN("transfers") == 0 {
					t.Errorf("no transfers completed: %s", res.AuxString())
				}
				if noHints && res.Stats.LatchWaits != 0 {
					t.Errorf("un-hinted run still waited on latches: %+v", res.Stats)
				}
			})
		}
	}
}

// TestCapabilityGating pins which engines each scenario admits: the
// workqueue runs exactly on the queue-capable engines (Medley family +
// Original), and the map scenarios exclude the static (LFTT) and
// non-transactional (Original) backends.
func TestCapabilityGating(t *testing.T) {
	in := func(list []string, k string) bool {
		for _, v := range list {
			if v == k {
				return true
			}
		}
		return false
	}
	wq := Engines("workqueue")
	for _, want := range []string{"medley", "txmontage", "original"} {
		if !in(wq, want) {
			t.Errorf("workqueue series missing %q: %v", want, wq)
		}
	}
	for _, deny := range []string{"onefile", "tdsl", "lftt", "boost"} {
		if in(wq, deny) {
			t.Errorf("workqueue series must exclude %q (no CapQueue): %v", deny, wq)
		}
	}
	for _, sc := range []string{"cache", "transfer"} {
		series := Engines(sc)
		for _, deny := range []string{"lftt", "original"} {
			if in(series, deny) {
				t.Errorf("%s series must exclude %q: %v", sc, deny, series)
			}
		}
		for _, want := range []string{"medley", "onefile", "tdsl", "boost"} {
			if !in(series, want) {
				t.Errorf("%s series missing %q: %v", sc, want, series)
			}
		}
	}

	if _, err := Run("no-such-workload", "medley", smokeConfig()); err == nil {
		t.Error("unknown scenario must fail")
	}
	if _, err := Run("cache", "no-such-engine", smokeConfig()); err == nil {
		t.Error("unknown engine must fail")
	}
	if _, err := Run("workqueue", "boost", smokeConfig()); err == nil {
		t.Error("workqueue on boost must be rejected (queues have no inverses)")
	}
	if _, err := Run("cache", "original", smokeConfig()); err == nil {
		t.Error("cache on original must be rejected (no transactions)")
	}
}
