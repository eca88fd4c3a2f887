package bookstore

import (
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	phoenix "repro"
	"repro/internal/rpc"
)

func newUniverse(t *testing.T) *phoenix.Universe {
	t.Helper()
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func deploy(t *testing.T, u *phoenix.Universe, level Level) *Deployment {
	t.Helper()
	d, err := Deploy(u, "evo2", level, []string{"alice", "bob"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range d.ServerProcs {
		cfg := p.Config()
		cfg.RetryInterval = 2 * time.Millisecond
		_ = cfg // config is fixed at start; fine for tests
	}
	return d
}

func TestSessionAtEveryLevel(t *testing.T) {
	for _, level := range []Level{LevelBaseline, LevelOptimizedLogging, LevelSpecialized} {
		t.Run(level.String(), func(t *testing.T) {
			u := newUniverse(t)
			d := deploy(t, u, level)
			defer d.Close()
			buyer := NewBuyer(u, d, "alice", "WA")
			r, err := buyer.RunSession()
			if err != nil {
				t.Fatal(err)
			}
			// "recovery" matches 2 titles in store1 and 3 in store2.
			if r.Offers != 5 {
				t.Errorf("offers = %d, want 5", r.Offers)
			}
			if r.Added != 2 || r.Shown != 2 || r.Removed != 2 {
				t.Errorf("basket flow = %+v", r)
			}
			// One book per store, first in title order: store2's
			// "A Survey..." (27.25) and store1's "Efficient
			// Transparent..." (35.50); tax on top.
			sub := 27.25 + 35.50
			if r.Total <= sub {
				t.Errorf("total %v does not include tax on %v", r.Total, sub)
			}
			if want := sub * 1.095; r.Total < want-0.01 || r.Total > want+0.01 {
				t.Errorf("total = %v, want %v (WA tax)", r.Total, want)
			}
		})
	}
}

func TestForceCountsDropAcrossLevels(t *testing.T) {
	// Table 8's headline: each optimization level strictly reduces
	// the number of log forces for the same session.
	var forces [3]int64
	for i, level := range []Level{LevelBaseline, LevelOptimizedLogging, LevelSpecialized} {
		u := newUniverse(t)
		d := deploy(t, u, level)
		buyer := NewBuyer(u, d, "alice", "WA")
		if _, err := buyer.RunSession(); err != nil {
			t.Fatal(err)
		}
		// Measure the steady-state session (types learned, baskets
		// created).
		d.ResetStats()
		if _, err := buyer.RunSession(); err != nil {
			t.Fatal(err)
		}
		forces[i] = d.Forces()
		d.Close()
	}
	t.Logf("forces per session: baseline=%d optimized=%d specialized=%d",
		forces[0], forces[1], forces[2])
	if !(forces[0] > forces[1] && forces[1] > forces[2]) {
		t.Errorf("forces not strictly decreasing: %v", forces)
	}
}

func TestTwoBuyersIndependentBaskets(t *testing.T) {
	u := newUniverse(t)
	d := deploy(t, u, LevelSpecialized)
	defer d.Close()
	alice := NewBuyer(u, d, "alice", "WA")
	bob := NewBuyer(u, d, "bob", "CA")

	seller := u.ExternalRef(d.SellerURI)
	if _, err := seller.Call("AddToBasket", "alice", BasketItem{Title: "X", Price: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := seller.Call("AddToBasket", "bob", BasketItem{Title: "Y", Price: 20}); err != nil {
		t.Fatal(err)
	}
	res, err := seller.Call("ShowBasket", "alice")
	if err != nil {
		t.Fatal(err)
	}
	items := res[0].([]BasketItem)
	if len(items) != 1 || items[0].Title != "X" {
		t.Errorf("alice basket = %+v", items)
	}
	_ = alice
	_ = bob
}

func TestSellerRecoveryKeepsBaskets(t *testing.T) {
	// Crash the seller process mid-shopping at every level; baskets
	// must survive (subordinate state recovered with the parent at
	// the specialized level, separate components otherwise).
	for _, level := range []Level{LevelBaseline, LevelOptimizedLogging, LevelSpecialized} {
		t.Run(level.String(), func(t *testing.T) {
			u := newUniverse(t)
			d := deploy(t, u, level)
			defer d.Close()
			seller := u.ExternalRef(d.SellerURI)
			if _, err := seller.Call("AddToBasket", "alice", BasketItem{Title: "K1", Price: 10}); err != nil {
				t.Fatal(err)
			}
			if _, err := seller.Call("AddToBasket", "alice", BasketItem{Title: "K2", Price: 15}); err != nil {
				t.Fatal(err)
			}
			// Crash and restart the seller process.
			m, _ := u.Machine("evo2")
			p, _ := m.Process("seller")
			p.Crash()
			if _, err := m.StartProcess("seller", level.Config()); err != nil {
				t.Fatal(err)
			}
			res, err := seller.Call("ShowBasket", "alice")
			if err != nil {
				t.Fatal(err)
			}
			items := res[0].([]BasketItem)
			if len(items) != 2 {
				t.Errorf("basket after seller recovery = %+v, want 2 items", items)
			}
		})
	}
}

func TestStoreRecoveryKeepsInventory(t *testing.T) {
	u := newUniverse(t)
	d := deploy(t, u, LevelSpecialized)
	defer d.Close()
	store := u.ExternalRef(d.StoreURIs[0])
	if _, err := store.Call("Buy", "Transaction Processing: Concepts and Techniques"); err != nil {
		t.Fatal(err)
	}
	m, _ := u.Machine("evo2")
	p, _ := m.Process("store1")
	p.Crash()
	if _, err := m.StartProcess("store1", LevelSpecialized.Config()); err != nil {
		t.Fatal(err)
	}
	res, err := store.Call("Search", "Transaction Processing")
	if err != nil {
		t.Fatal(err)
	}
	books := res[0].([]Book)
	if len(books) != 1 || books[0].Stock != 4 {
		t.Errorf("after recovery: %+v, want stock 4", books)
	}
}

func TestPriceAndRestock(t *testing.T) {
	u := newUniverse(t)
	d := deploy(t, u, LevelSpecialized)
	defer d.Close()
	store := u.ExternalRef(d.StoreURIs[0])
	res, err := store.Call("Price", "Efficient Transparent Application Recovery")
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(float64); got != 35.50 {
		t.Errorf("Price = %v", got)
	}
	if _, err := store.Call("Price", "No Such Book"); err == nil {
		t.Error("price of unknown title succeeded")
	}
	// Restock an existing title and a new one.
	res, err = store.Call("Restock", Book{Title: "Efficient Transparent Application Recovery", Stock: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int); got != 10 {
		t.Errorf("restocked count = %v, want 10", got)
	}
	res, err = store.Call("Restock", Book{Title: "Brand New", Price: 5, Stock: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := res[0].(int); got != 3 {
		t.Errorf("new title count = %v, want 3", got)
	}
	r2, err := store.Call("Search", "Brand New")
	if err != nil {
		t.Fatal(err)
	}
	if books := r2[0].([]Book); len(books) != 1 {
		t.Errorf("new title not searchable: %v", books)
	}
}

func TestBuyOutOfStock(t *testing.T) {
	u := newUniverse(t)
	d := deploy(t, u, LevelSpecialized)
	defer d.Close()
	store := u.ExternalRef(d.StoreURIs[1])
	title := "Recovery Guarantees for General Multi-Tier Applications"
	for i := 0; i < 3; i++ {
		if _, err := store.Call("Buy", title); err != nil {
			t.Fatalf("buy %d: %v", i, err)
		}
	}
	if _, err := store.Call("Buy", title); err == nil {
		t.Error("bought more than the stock")
	}
}

func TestTaxCalculatorIsPure(t *testing.T) {
	u := newUniverse(t)
	d := deploy(t, u, LevelSpecialized)
	defer d.Close()
	tax := u.ExternalRef(d.TaxURI)
	res1, err := tax.Call("Tax", 100.0, "WA")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := tax.Call("Tax", 100.0, "WA")
	if err != nil {
		t.Fatal(err)
	}
	if res1[0] != res2[0] {
		t.Errorf("functional component returned different results: %v %v", res1, res2)
	}
	if got := res1[0].(float64); got != 9.5 {
		t.Errorf("Tax(100, WA) = %v, want 9.5", got)
	}
	// Unknown state falls back to the default rate.
	res3, err := tax.Call("Tax", 100.0, "ZZ")
	if err != nil {
		t.Fatal(err)
	}
	if got := res3[0].(float64); got != 8.0 {
		t.Errorf("Tax(100, ZZ) = %v, want 8.0", got)
	}
}

func TestCheckoutBuysFromEachStore(t *testing.T) {
	u := newUniverse(t)
	d := deploy(t, u, LevelSpecialized)
	defer d.Close()
	seller := u.ExternalRef(d.SellerURI)
	for i, title := range []string{
		"Efficient Transparent Application Recovery",              // store1
		"Recovery Guarantees for General Multi-Tier Applications", // store2
	} {
		store := d.StoreURIs[i]
		price := []float64{35.50, 39.99}[i]
		if _, err := seller.Call("AddToBasket", "alice",
			BasketItem{Title: title, Store: string(store), Price: price}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := seller.Call("Checkout", "alice", "PA")
	if err != nil {
		t.Fatal(err)
	}
	want := (35.50 + 39.99) * 1.06
	if got := res[0].(float64); got < want-0.01 || got > want+0.01 {
		t.Errorf("checkout total = %v, want %v", got, want)
	}
	// Stock decremented at both stores.
	s1 := u.ExternalRef(d.StoreURIs[0])
	r, err := s1.Call("Search", "Efficient Transparent")
	if err != nil {
		t.Fatal(err)
	}
	if books := r[0].([]Book); books[0].Stock != 7 {
		t.Errorf("store1 stock = %d, want 7", books[0].Stock)
	}
	// Basket emptied.
	r, err = seller.Call("ShowBasket", "alice")
	if err != nil {
		t.Fatal(err)
	}
	if items := r[0].([]BasketItem); len(items) != 0 {
		t.Errorf("basket after checkout = %v", items)
	}
	// Checkout of an empty basket is an application error.
	if _, err := seller.Call("Checkout", "alice", "PA"); err == nil {
		t.Error("empty-basket checkout succeeded")
	}
}

func TestBookstoreOverTCP(t *testing.T) {
	// The whole application over real sockets: six processes, each on
	// its own loopback port, binary envelopes on the wire.
	tcp := phoenix.NewTCPNetwork()
	defer tcp.Close()
	var mu sync.Mutex
	ports := map[string]string{}
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{
		Dir: t.TempDir(),
		Net: tcp,
		AddrFor: func(machine, process string) string {
			mu.Lock()
			defer mu.Unlock()
			key := machine + "/" + process
			if a, ok := ports[key]; ok {
				return a
			}
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				panic(err)
			}
			a := ln.Addr().String()
			ln.Close()
			ports[key] = a
			return a
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Deploy(u, "server", LevelSpecialized, []string{"alice"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buyer := NewBuyer(u, d, "alice", "WA")
	r, err := buyer.RunSession()
	if err != nil {
		t.Fatal(err)
	}
	if r.Offers != 5 || r.Added != 2 {
		t.Errorf("TCP session = %+v", r)
	}
}

func TestGrabberMergesStores(t *testing.T) {
	u := newUniverse(t)
	d := deploy(t, u, LevelSpecialized)
	defer d.Close()
	g := u.ExternalRef(d.GrabberURI)
	res, err := g.Call("Grab", "ARIES")
	if err != nil {
		t.Fatal(err)
	}
	offers := res[0].([]Offer)
	if len(offers) != 1 || offers[0].Book.Author != "Mohan" {
		t.Errorf("Grab(ARIES) = %+v", offers)
	}
	// Title present in both stores yields two offers, sorted.
	res, err = g.Call("Grab", "Multi-Tier")
	if err != nil {
		t.Fatal(err)
	}
	offers = res[0].([]Offer)
	if len(offers) != 2 {
		t.Errorf("Grab(Multi-Tier) = %+v, want offers from both stores", offers)
	}
}

// TestValuesCrossTheWire: every application type the bookstore passes
// between components survives the value codec, singly and in the
// slices Search, Show and Inventories return.
func TestValuesCrossTheWire(t *testing.T) {
	book := Book{Title: "Transaction Processing", Author: "Gray, Reuter", Price: 89.5, Stock: 3}
	offer := Offer{Store: "phoenix://evo2/store1/BookStore", Book: book}
	item := BasketItem{Title: book.Title, Store: offer.Store, Price: book.Price}
	in := []any{book, offer, item, []Book{book, {}}, []Offer{offer, {Store: "s"}}, []BasketItem{item}, []Offer(nil)}
	data, n, err := rpc.EncodeArgs(in...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := rpc.DecodeResults(data)
	if err != nil || n != len(in) {
		t.Fatalf("decode: %v (%d values)", err, n)
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("round trip:\n got %#v\nwant %#v", out, in)
	}
}
