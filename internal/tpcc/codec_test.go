package tpcc

import (
	"reflect"
	"testing"

	"medley/internal/pnvm"
)

// Every row type survives the trip a txMontage payload makes: encoded into
// one reused buffer, stored on a device (which copies it: the buffer is
// rewritten by the next row), written back, crashed and dumped, decoded. A
// NewOrderRow is a one-byte payload the device line holds; every other row
// lands in the device's side slab.
func TestRowCodecRoundTrip(t *testing.T) {
	rows := []any{
		&Warehouse{YTD: 300_000_00, Tax: 1234},
		&District{NextOID: 3001, YTD: 30_000_00, Tax: 987},
		&Customer{Balance: -1000, YTDPayment: 1000, PaymentCnt: 1},
		&Stock{Quantity: -3, YTD: 42, OrderCnt: 7},
		&Item{Price: 9999},
		&Order{CID: 17, OLCnt: 15},
		&NewOrderRow{},
		&OrderLine{IID: 100_000, Qty: 5, Amount: 1<<63 + 1},
		&History{Amount: 10_00},
	}
	codec := rowCodec()
	dev := pnvm.New(pnvm.Latencies{})
	var buf []byte
	for k, row := range rows {
		buf = codec.Enc(buf[:0], row)
		id, err := dev.Write(uint64(k), buf, 1)
		if err != nil {
			t.Fatal(err)
		}
		dev.WriteBack(id)
	}
	dev.Fence()
	dumps := pnvm.DumpAll([]*pnvm.Device{dev})
	if len(dumps[0]) != len(rows) {
		t.Fatalf("dumped %d records, wrote %d", len(dumps[0]), len(rows))
	}
	for _, r := range dumps[0] {
		want := rows[r.Key]
		if got := codec.Dec(r.Val); !reflect.DeepEqual(got, want) {
			t.Errorf("%T: %d payload bytes decode to %+v, want %+v", want, len(r.Val), got, want)
		}
	}
}
