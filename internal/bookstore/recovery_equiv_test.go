package bookstore

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	phoenix "repro"
)

// TestSellerRecoveryEquivalence pins the Config.Recovery contract
// against the paper's own application, through the public facade: a
// bookstore seller process hosting one BookSeller plus a
// basket-manager context per buyer, crashed mid-shopping and recovered
// from the same log eagerly and lazily. Both runs must reproduce
// identical baskets and identical replay accounting. (The wider table —
// injected crashes, last-call tables — is core's
// TestRecoveryEquivalence.)
func TestSellerRecoveryEquivalence(t *testing.T) {
	buyers := []string{"alice", "bob", "carol", "dave"}
	dir := t.TempDir()
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// LevelOptimizedLogging keeps each buyer's basket manager a
	// separate persistent component, so the seller process hosts
	// several contexts with replayable records.
	d, err := Deploy(u, "server", LevelOptimizedLogging, buyers)
	if err != nil {
		t.Fatal(err)
	}
	seller := u.ExternalRef(d.SellerURI)
	for round := 0; round < 3; round++ {
		for i, b := range buyers {
			item := BasketItem{Title: fmt.Sprintf("Book-%s-%d", b, round), Price: float64(10 + i)}
			if _, err := seller.Call("AddToBasket", b, item); err != nil {
				t.Fatal(err)
			}
		}
	}
	m, _ := u.Machine("server")
	p, _ := m.Process("seller")
	p.Crash()
	u.Shutdown()

	type outcome struct {
		baskets map[string][]BasketItem
		stats   phoenix.RecoveryStats
	}
	recoverAt := func(mode phoenix.RecoveryMode) outcome {
		t.Helper()
		dst := t.TempDir()
		cloneDir(t, dir, dst)
		u2, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: dst})
		if err != nil {
			t.Fatal(err)
		}
		defer u2.Shutdown()
		m2, err := u2.AddMachine("server")
		if err != nil {
			t.Fatal(err)
		}
		cfg := LevelOptimizedLogging.Config()
		cfg.Recovery = phoenix.RecoveryConfig{Mode: mode}
		p2, err := m2.StartProcess("seller", cfg)
		if err != nil {
			t.Fatalf("%v: restart seller: %v", mode, err)
		}
		if err := p2.DrainRecovery(); err != nil {
			t.Fatalf("%v: drain: %v", mode, err)
		}
		stats, ok := p2.LastRecovery()
		if !ok {
			t.Fatalf("%v: LastRecovery reported no run", mode)
		}

		out := outcome{baskets: make(map[string][]BasketItem), stats: stats}
		ref := u2.ExternalRef(d.SellerURI)
		for _, b := range buyers {
			res, err := ref.Call("ShowBasket", b)
			if err != nil {
				t.Fatalf("%v: ShowBasket %s: %v", mode, b, err)
			}
			out.baskets[b] = res[0].([]BasketItem)
		}
		return out
	}

	base := recoverAt(phoenix.RecoveryEager)
	if base.stats.CallsReplayed == 0 {
		t.Error("seller recovery replayed no calls; workload too small")
	}
	for _, b := range buyers {
		if len(base.baskets[b]) != 3 {
			t.Errorf("baseline recovery: %s basket has %d items, want 3", b, len(base.baskets[b]))
		}
	}
	got := recoverAt(phoenix.RecoveryLazy)
	for _, b := range buyers {
		if fmt.Sprint(got.baskets[b]) != fmt.Sprint(base.baskets[b]) {
			t.Errorf("lazy: %s basket %v, eager recovered %v", b, got.baskets[b], base.baskets[b])
		}
	}
	if got.stats.CallsReplayed != base.stats.CallsReplayed ||
		got.stats.CallsSuppressed != base.stats.CallsSuppressed ||
		got.stats.RecordsScanned != base.stats.RecordsScanned ||
		got.stats.ContextsRestored != base.stats.ContextsRestored {
		t.Errorf("lazy: stats %+v diverge from eager %+v", got.stats, base.stats)
	}
}

// cloneDir copies a universe directory so each recovery attempt starts
// from the same crashed on-disk state.
func cloneDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, de fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if de.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
