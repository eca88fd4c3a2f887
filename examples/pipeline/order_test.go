package main

import (
	"reflect"
	"testing"

	"repro/internal/rpc"
)

// TestOrderCrossesTheWire: the pipeline's unit of work, as the stages
// pass it (by value and as the ledger's slice), survives the value
// codec that carries arguments and results.
func TestOrderCrossesTheWire(t *testing.T) {
	o := Order{ID: 7, Item: "widget", Qty: 3, Total: 29.97, Status: "priced"}
	in := []any{o, []Order{o, {}}}
	data, _, err := rpc.EncodeArgs(in...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rpc.DecodeResults(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip:\n got %#v\nwant %#v", out, in)
	}
}
