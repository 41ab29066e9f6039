package pnvm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"medley/internal/chaos"
)

// rec is one record of a hand-built pre-crash device state: written to
// device dev and written back unless volatile; a retired one is written back
// with its mark.
type rec struct {
	dev           int
	key           uint64
	val           byte
	epoch, retire uint64
	volatile      bool
}

func marker(dev int, epoch uint64) rec { return rec{dev: dev, key: MarkerKey, epoch: epoch} }

// build lays the records down on n fresh devices and crashes the fleet.
func build(t *testing.T, n int, recs []rec) ([]*Device, [][]Record) {
	t.Helper()
	devs := make([]*Device, n)
	for i := range devs {
		devs[i] = New(Latencies{})
	}
	for _, r := range recs {
		d := devs[r.dev]
		id, err := d.Write(r.key, []byte{r.val}, r.epoch)
		if err != nil {
			t.Fatal(err)
		}
		if r.retire != 0 {
			d.WriteBackAll([]uint64{id}, r.retire, nil)
		} else if !r.volatile {
			d.WriteBack(id)
		}
	}
	return devs, DumpAll(devs)
}

// mediaState crashes and re-dumps the fleet, returning per device the
// key→value bindings on media and the epochs of its markers. Going through
// a crash also proves that what recovery left behind is durable.
func mediaState(t *testing.T, devs []*Device) (kv []map[uint64]byte, markers [][]uint64, dumps [][]Record) {
	t.Helper()
	dumps = DumpAll(devs)
	kv, markers = make([]map[uint64]byte, len(devs)), make([][]uint64, len(devs))
	for i, d := range dumps {
		kv[i] = map[uint64]byte{}
		for _, r := range d {
			switch {
			case r.Key == MarkerKey:
				markers[i] = append(markers[i], r.Epoch)
			case r.Retire != 0:
				t.Fatalf("device %d: record %d (key %d) still carries retire mark %d", i, r.ID, r.Key, r.Retire)
			default:
				if _, dup := kv[i][r.Key]; dup {
					t.Fatalf("device %d: key %d has two records on media", i, r.Key)
				}
				kv[i][r.Key] = r.Val[0]
			}
		}
	}
	return kv, markers, dumps
}

func liveKV(rec Recovery) []map[uint64]byte {
	out := make([]map[uint64]byte, len(rec.Live))
	for i, live := range rec.Live {
		out[i] = map[uint64]byte{}
		for _, r := range live {
			out[i][r.Key] = r.Val[0]
		}
	}
	return out
}

// pipelineCases is the recovery rule, one row per clause. Every row is
// checked three ways by the tests below: the returned cut and live set, the
// media afterwards (exactly the live set plus one marker at the cut per
// device, all durable), and a crash at every instant inside recovery.
var pipelineCases = []struct {
	name string
	devs int
	recs []rec
	cut  uint64
	live []map[uint64]byte
}{
	{
		name: "torn payload beyond cut dropped",
		devs: 1,
		recs: []rec{{key: 1, val: 10, epoch: 5}, {key: 2, val: 20, epoch: 6}, marker(0, 5)},
		cut:  5,
		live: []map[uint64]byte{{1: 10}},
	},
	{
		name: "retire mark beyond cut lifted",
		devs: 1,
		recs: []rec{{key: 1, val: 10, epoch: 4, retire: 6}, {key: 1, val: 11, epoch: 6}, marker(0, 5)},
		cut:  5,
		live: []map[uint64]byte{{1: 10}},
	},
	{
		name: "durably retired at the cut dropped",
		devs: 1,
		recs: []rec{{key: 1, val: 10, epoch: 3, retire: 5}, {key: 1, val: 11, epoch: 5}, {key: 2, val: 20, epoch: 4, retire: 5}, marker(0, 5)},
		cut:  5,
		live: []map[uint64]byte{{1: 11}},
	},
	{
		name: "duplicate live records: newest id wins",
		devs: 1,
		recs: []rec{{key: 1, val: 10, epoch: 3}, {key: 1, val: 11, epoch: 4}, {key: 1, val: 12, epoch: 4}, marker(0, 5)},
		cut:  5,
		live: []map[uint64]byte{{1: 12}},
	},
	{
		name: "volatile writes and volatile marker lost",
		devs: 1,
		recs: []rec{{key: 1, val: 10, epoch: 5}, marker(0, 5), {key: 2, val: 20, epoch: 6, volatile: true},
			{dev: 0, key: MarkerKey, epoch: 6, volatile: true}},
		cut:  5,
		live: []map[uint64]byte{{1: 10}},
	},
	{
		name: "marker history collapses to one",
		devs: 1,
		recs: []rec{marker(0, 3), {key: 1, val: 10, epoch: 4}, marker(0, 4), marker(0, 5)},
		cut:  5,
		live: []map[uint64]byte{{1: 10}},
	},
	{
		name: "stale marker ahead of the domain cut",
		devs: 2,
		recs: []rec{
			marker(0, 5), {dev: 0, key: 1, val: 10, epoch: 6}, {dev: 0, key: 2, val: 20, epoch: 7}, marker(0, 7),
			{dev: 0, key: 3, val: 30, epoch: 5, retire: 7},
			marker(1, 6), {dev: 1, key: 4, val: 40, epoch: 6}, {dev: 1, key: 5, val: 50, epoch: 7},
		},
		cut:  6,
		live: []map[uint64]byte{{1: 10, 3: 30}, {4: 40}},
	},
	{
		name: "one device without a marker: cut 0, nothing provably complete",
		devs: 2,
		recs: []rec{{dev: 0, key: 1, val: 10, epoch: 3}, marker(0, 3), {dev: 1, key: 2, val: 20, epoch: 3}},
		cut:  0,
		live: []map[uint64]byte{{}, {}},
	},
}

func TestRecoverDomain(t *testing.T) {
	for _, tc := range pipelineCases {
		t.Run(tc.name, func(t *testing.T) {
			devs, dumps := build(t, tc.devs, tc.recs)
			if got := Cut(dumps); got != tc.cut {
				t.Fatalf("Cut = %d, want %d", got, tc.cut)
			}
			rec, err := RecoverDomain(devs, dumps)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Cut != tc.cut {
				t.Fatalf("recovered at cut %d, want %d", rec.Cut, tc.cut)
			}
			if got := liveKV(rec); !reflect.DeepEqual(got, tc.live) {
				t.Fatalf("live set %v, want %v", got, tc.live)
			}
			// Media = live + one marker at the cut per device, and the id
			// handed back is that marker's.
			for i, d := range devs {
				if n := len(tc.live[i]) + 1; d.Live() != n {
					t.Fatalf("device %d holds %d records after recovery, want %d live + 1 marker", i, d.Live(), n-1)
				}
				checkSlab(t, d) // the scrub frees each slot it empties once
			}
			kv, markers, dumps2 := mediaState(t, devs)
			if !reflect.DeepEqual(kv, tc.live) {
				t.Fatalf("media after recovery %v, want %v", kv, tc.live)
			}
			for i := range devs {
				if !reflect.DeepEqual(markers[i], []uint64{tc.cut}) {
					t.Fatalf("device %d markers %v, want exactly one at %d", i, markers[i], tc.cut)
				}
				for _, r := range dumps2[i] {
					if r.Key == MarkerKey && r.ID != rec.Markers[i] {
						t.Fatalf("device %d: Markers[%d] = %d, marker on media has id %d", i, i, rec.Markers[i], r.ID)
					}
				}
			}
			// Recovering the recovered state is a fixed point.
			again, err := RecoverDomain(devs, dumps2)
			if err != nil {
				t.Fatal(err)
			}
			if again.Cut != tc.cut || !reflect.DeepEqual(liveKV(again), tc.live) {
				t.Fatalf("second recovery: cut %d live %v, want %d %v", again.Cut, liveKV(again), tc.cut, tc.live)
			}
			if kv, _, _ := mediaState(t, devs); !reflect.DeepEqual(kv, tc.live) {
				t.Fatalf("media after second recovery %v, want %v", kv, tc.live)
			}
		})
	}
}

// A key rewritten hundreds of times in one epoch, with no retire marks, leaves
// that many live records of the key at the cut, and recovery keeps the newest
// by id. Between two rewrites other keys' writes move other shards' serials on
// unevenly; the key's records all sit on its shard, where ids grow with
// allocation order. On one device and on four, each with its own run of
// rewrites.
func TestRewrittenKeyRecoversNewest(t *testing.T) {
	const hot, rewrites, epoch = 7, 500, 5
	for _, n := range []int{1, 4} {
		devs := make([]*Device, n)
		for i := range devs {
			devs[i] = New(Latencies{})
		}
		write := func(d *Device, key, val uint64) {
			id, err := d.Write(key, binary.LittleEndian.AppendUint64(nil, val), epoch)
			if err != nil {
				t.Fatal(err)
			}
			d.WriteBack(id)
		}
		other := uint64(1000)
		for v := uint64(1); v <= rewrites; v++ {
			for _, d := range devs {
				write(d, hot, v)
				for range v % 5 {
					write(d, other, v)
					other++
				}
			}
		}
		for _, d := range devs {
			write(d, MarkerKey, 0)
		}
		rec, err := RecoverDomain(devs, DumpAll(devs))
		if err != nil {
			t.Fatal(err)
		}
		for i, live := range rec.Live {
			var got []uint64
			for _, r := range live {
				if r.Key == hot {
					got = append(got, binary.LittleEndian.Uint64(r.Val))
				}
			}
			if len(got) != 1 || got[0] != rewrites {
				t.Fatalf("%d devices: device %d recovered key %d as %v, want its newest value %d alone", n, i, hot, got, rewrites)
			}
		}
	}
}

// TestRecoverDomainCrashInside enumerates a second power failure at every
// hit of every recovery fault point, on every row of the rule table, and
// requires the next recovery to reach the same cut, live set and media as
// an uninterrupted one. Deleting the old markers before the fresh one is
// durable — the order both pre-pipeline scrubs used — fails every
// post-scrub point here with cut 0 and an empty store.
func TestRecoverDomainCrashInside(t *testing.T) {
	t.Cleanup(chaos.DisarmAll)
	points := map[string]func(devs int) int{ // point → hits in one recovery
		"recover.scrub":           func(devs int) int { return devs * nShards },
		"recover.pre-marker":      func(devs int) int { return devs },
		"recover.marker-volatile": func(devs int) int { return devs },
		"recover.post-marker":     func(devs int) int { return devs },
		"recover.mid-device":      func(devs int) int { return devs },
	}
	for _, tc := range pipelineCases {
		for point, hits := range points {
			for after := 0; after < hits(tc.devs); after++ {
				devs, dumps := build(t, tc.devs, tc.recs)
				if err := chaos.Arm(point, chaos.Fault{Kind: chaos.Crash, After: after, Action: func() {
					for _, d := range devs {
						d.Crash()
					}
				}}); err != nil {
					t.Fatal(err)
				}
				func() {
					defer func() {
						r := recover()
						if _, ok := chaos.AsCrash(r); !ok {
							if r != nil {
								panic(r)
							}
							t.Fatalf("%s: %s after=%d never fired", tc.name, point, after)
						}
					}()
					RecoverDomain(devs, dumps)
				}()
				chaos.DisarmAll()
				rec, err := RecoverDomain(devs, DumpAll(devs))
				if err != nil {
					t.Fatal(err)
				}
				at := fmt.Sprintf("%s: crash at %s after=%d", tc.name, point, after)
				if rec.Cut != tc.cut || !reflect.DeepEqual(liveKV(rec), tc.live) {
					t.Fatalf("%s: next recovery cut %d live %v, want %d %v", at, rec.Cut, liveKV(rec), tc.cut, tc.live)
				}
				kv, markers, _ := mediaState(t, devs)
				if !reflect.DeepEqual(kv, tc.live) {
					t.Fatalf("%s: media %v, want %v", at, kv, tc.live)
				}
				for i := range devs {
					if !reflect.DeepEqual(markers[i], []uint64{tc.cut}) {
						t.Fatalf("%s: device %d markers %v, want one at %d", at, i, markers[i], tc.cut)
					}
				}
			}
		}
	}
}

// TestRecoverDomainRejectsAndReports: a dump count that does not match the
// device count is refused before media is touched, and a failed marker
// write is returned — with every old marker still in place, so rerunning
// recovery loses nothing.
func TestRecoverDomainRejectsAndReports(t *testing.T) {
	t.Cleanup(chaos.DisarmAll)
	tc := pipelineCases[0]
	devs, dumps := build(t, tc.devs, tc.recs)
	before := devs[0].Live()
	for _, bad := range [][][]Record{nil, {dumps[0], dumps[0]}} {
		if _, err := RecoverDomain(devs, bad); err == nil {
			t.Fatalf("%d dumps for 1 device accepted", len(bad))
		}
	}
	if devs[0].Live() != before {
		t.Fatalf("rejected recovery mutated media: %d → %d records", before, devs[0].Live())
	}

	injected := errors.New("injected media error")
	if err := chaos.Arm("pnvm.write", chaos.Fault{Kind: chaos.Error, Err: injected}); err != nil {
		t.Fatal(err)
	}
	if _, err := RecoverDomain(devs, dumps); !errors.Is(err, injected) {
		t.Fatalf("marker write failure returned %v, want the injected error", err)
	}
	chaos.DisarmAll()
	rec, err := RecoverDomain(devs, DumpAll(devs))
	if err != nil {
		t.Fatal(err)
	}
	if rec.Cut != tc.cut || !reflect.DeepEqual(liveKV(rec), tc.live) {
		t.Fatalf("recovery after a failed one: cut %d live %v, want %d %v", rec.Cut, liveKV(rec), tc.cut, tc.live)
	}

	// A device that was never reopened is refused, not scrubbed.
	devs[0].Crash()
	if _, err := RecoverDomain(devs, dumps); !errors.Is(err, ErrCrashed) {
		t.Fatalf("recovery on a crashed device returned %v, want ErrCrashed", err)
	}
}
