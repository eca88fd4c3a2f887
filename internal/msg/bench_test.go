package msg

import (
	"fmt"
	"testing"

	"repro/internal/ids"
)

// benchCall is a representative Figure-1 message: a persistent client
// calling a persistent server with a realistic argument stream (the
// size EncodeAnySlice produces for a one-int argument list).
func benchCall() *Call {
	args, _ := EncodeAnySlice([]any{42})
	return &Call{
		ID: ids.CallID{
			Caller: ids.ComponentAddr{Machine: "evo1", Proc: 2, Comp: 3},
			Seq:    17,
		},
		Target:     ids.MakeURI("evo2", "shop", "Store"),
		Method:     "Search",
		Args:       args,
		NumArgs:    1,
		CallerType: Persistent,
		CallerURI:  ids.MakeURI("evo1", "buyer", "Buyer"),
	}
}

func benchReply() *Reply {
	results, _ := EncodeAnySlice([]any{42})
	return &Reply{
		ID: ids.CallID{
			Caller: ids.ComponentAddr{Machine: "evo1", Proc: 2, Comp: 3},
			Seq:    17,
		},
		Results:       results,
		NumResults:    1,
		HasAttachment: true,
		ServerType:    Persistent,
	}
}

func BenchmarkEncodeCall(b *testing.B) {
	c := benchCall()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := EncodeCall(c)
		if err != nil {
			b.Fatal(err)
		}
		FreeBuf(data)
	}
}

func BenchmarkDecodeCall(b *testing.B) {
	c := benchCall()
	data, err := EncodeCall(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCall(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeReply(b *testing.B) {
	r := benchReply()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := EncodeReply(r)
		if err != nil {
			b.Fatal(err)
		}
		FreeBuf(data)
	}
}

func BenchmarkDecodeReply(b *testing.B) {
	r := benchReply()
	data, err := EncodeReply(r)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeReply(data); err != nil {
			b.Fatal(err)
		}
	}
}

// The two value-list shapes the benchmark's workloads send — one int
// (p2p-mem's Add) and a search reply of eight offers (the bookstore's
// []Offer, mirrored here because bookstore imports this package) — and
// two closed-set composites of sixteen elements, which travel by the
// plan of their type like the offers do.
type benchBook struct {
	Title  string
	Author string
	Price  float64
	Stock  int
}

type benchOffer struct {
	Store string
	Book  benchBook
}

func init() { RegisterType([]benchOffer(nil)) }

type benchValueList struct {
	name string
	vals []any
}

func benchValueLists() []benchValueList {
	offers := make([]benchOffer, 8)
	for i := range offers {
		offers[i] = benchOffer{
			Store: "phoenix://evo2/store1/BookStore",
			Book:  benchBook{Title: "Transaction Processing", Author: "Gray, Reuter", Price: 89.5, Stock: i},
		}
	}
	strs, m := make([]string, 16), make(map[string]int, 16)
	for i := range strs {
		strs[i] = fmt.Sprintf("keyword-%02d", i)
		m[strs[i]] = i
	}
	return []benchValueList{{"int", []any{42}}, {"offers8", []any{offers}}, {"strings16", []any{strs}}, {"map16", []any{m}}}
}

func BenchmarkEncodeAnySlice(b *testing.B) {
	for _, l := range benchValueLists() {
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeAnySlice(l.vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeAnySlice(b *testing.B) {
	for _, l := range benchValueLists() {
		data, err := EncodeAnySlice(l.vals)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(l.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeAnySlice(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
