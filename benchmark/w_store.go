package main

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"

	phoenix "repro"
	"repro/internal/bookstore"
)

// store-sim: paper Table 8, the bookstore session (search, two basket
// adds, show, total with tax, clear) at the "specialized components and
// read-only methods" level, every server process logging to one shared
// simulated 7200-RPM disk. Wall time is forces × rotation; the CPU row
// shows what the codec and dispatch cost on struct and slice values and
// on the read-only, functional and subordinate paths.

type storeEnv struct {
	u     *phoenix.Universe
	d     *bookstore.Deployment
	buyer *bookstore.Buyer
	want  bookstore.SessionResult
}

// storeKeyword is the search the scripted session makes.
const storeKeyword = "recovery"

// storeStates are the tax jurisdictions the deployment knows; the seed
// picks the buyer's.
var storeStates = []struct {
	code string
	rate float64
}{{"WA", 0.095}, {"CA", 0.0875}, {"PA", 0.06}}

// session runs one scripted session and checks every figure it
// reports.
func (e *storeEnv) session() bool {
	sp := tracer.begin(spanCall)
	got, err := e.buyer.RunSession()
	tracer.end(sp)
	return err == nil && got.Offers == e.want.Offers && got.Added == e.want.Added &&
		got.Shown == e.want.Shown && got.Removed == e.want.Removed &&
		math.Abs(got.Total-e.want.Total) < 1e-9
}

func (e *storeEnv) close() { e.d.Close() }

// setupStore deploys the bookstore on the simulated disk; hot puts the
// disk and the universe on a clock that never sleeps.
func setupStore(rc *runCtx, dir string, hot bool) (*storeEnv, error) {
	sim, clock := newSimDisk(hot)
	u, err := rc.universe(dir, sim, clock)
	if err != nil {
		return nil, err
	}
	d, err := bookstore.Deploy(u, "evo2", bookstore.LevelSpecialized, []string{"buyer"})
	if err != nil {
		return nil, err
	}
	state := storeStates[newLCG(rc.seed).intn(len(storeStates))]
	e := &storeEnv{u: u, d: d, buyer: bookstore.NewBuyer(u, d, "buyer", state.code)}

	// The model of one session: every store answers the keyword search;
	// the buyer takes, per store, the first offer in (title, store)
	// order, sees both in the basket, pays their sum plus tax, and
	// removes both.
	var offers []bookstore.Offer
	inv1, inv2 := bookstore.Inventories()
	for i, inv := range [][]bookstore.Book{inv1, inv2} {
		hits, err := (&bookstore.BookStore{Inventory: inv}).Search(storeKeyword)
		if err != nil {
			return nil, err
		}
		for _, b := range hits {
			offers = append(offers, bookstore.Offer{Store: string(d.StoreURIs[i]), Book: b})
		}
	}
	sort.Slice(offers, func(i, j int) bool {
		if offers[i].Book.Title != offers[j].Book.Title {
			return offers[i].Book.Title < offers[j].Book.Title
		}
		return offers[i].Store < offers[j].Store
	})
	e.want.Offers = len(offers)
	var subtotal float64
	bought := map[string]bool{}
	for _, o := range offers {
		if !bought[o.Store] {
			bought[o.Store] = true
			subtotal += o.Book.Price
		}
	}
	e.want.Added, e.want.Shown, e.want.Removed = len(bought), len(bought), len(bought)
	e.want.Total = subtotal + subtotal*state.rate

	if !e.session() { // warm-up: creates the buyer's basket
		return nil, fmt.Errorf("warm-up session failed or returned the wrong totals")
	}
	return e, nil
}

func runStore(rc *runCtx) (*result, error) {
	res := newResult(rc, "store-sim")
	e, setup, err := setupBest(rc, 5, false, func(dir string) (*storeEnv, error) { return setupStore(rc, dir, false) }, (*storeEnv).close)
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup)
	var hotOp func() bool
	if !rc.traced {
		hot, err := setupStore(rc, filepath.Join(rc.dir, "hot"), true)
		if err != nil {
			return nil, err
		}
		defer hot.close()
		hotOp = hot.session
	}
	inv1, inv2 := bookstore.Inventories()
	runClosed(rc, res, closedSpec{
		op:           e.session,
		procs:        e.d.ServerProcs,
		metrics:      e.u.Metrics(),
		windows:      numWindows,
		tailQ:        0.95,
		wholeRunTail: true,
		hotOp:        hotOp,
		layers: layerInput{
			replayObjs: map[string]any{
				"Store1":        &bookstore.BookStore{Inventory: inv1},
				"Store2":        &bookstore.BookStore{Inventory: inv2},
				"TaxCalculator": &bookstore.TaxCalculator{Rates: map[string]float64{"WA": 0.095, "CA": 0.0875, "PA": 0.06}},
			},
			stateObj: &bookstore.BookStore{Inventory: inv1},
			scanDir:  e.d.ServerProcs[3].LogDir(), // the seller: the only process that logs every session
		},
	})
	e.close()
	return res, nil
}
