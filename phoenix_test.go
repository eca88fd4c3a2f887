package phoenix_test

import (
	"errors"
	"fmt"
	"log"
	"os"
	"reflect"
	"testing"
	"time"

	phoenix "repro"
)

// Account is a persistent component used by the public-API tests.
type Account struct {
	Balance int
	History []string
}

// Deposit applies a delta and journals it.
func (a *Account) Deposit(amount int, memo string) (int, error) {
	if a.Balance+amount < 0 {
		return 0, errors.New("insufficient funds")
	}
	a.Balance += amount
	a.History = append(a.History, memo)
	return a.Balance, nil
}

// Statement lists the journal (read-only).
func (a *Account) Statement() ([]string, error) {
	out := make([]string, len(a.History))
	copy(out, a.History)
	return out, nil
}

func testCfg() phoenix.Config {
	return phoenix.Config{
		LogMode:          phoenix.LogOptimized,
		SpecializedTypes: true,
		RetryInterval:    2 * time.Millisecond,
		RetryLimit:       100,
	}
}

func TestPublicAPIRoundTripAndRecovery(t *testing.T) {
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.StartProcess("bankd", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Create("Account", &Account{},
		phoenix.WithReadOnlyMethods("Statement"))
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	if _, err := ref.Call("Deposit", 100, "payday"); err != nil {
		t.Fatal(err)
	}
	if _, err := ref.Call("Deposit", -30, "rent"); err != nil {
		t.Fatal(err)
	}
	// Application error: balance unchanged, component alive.
	if _, err := ref.Call("Deposit", -500, "yacht"); err == nil {
		t.Fatal("overdraft accepted")
	} else {
		var appErr *phoenix.AppError
		if !errors.As(err, &appErr) {
			t.Fatalf("err = %v, want AppError", err)
		}
	}

	p.Crash()
	p2, err := m.StartProcess("bankd", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if !p2.Recovered() {
		t.Error("restart did not recover")
	}
	res, err := ref.Call("Statement")
	if err != nil {
		t.Fatal(err)
	}
	hist := res[0].([]string)
	if len(hist) != 2 || hist[0] != "payday" || hist[1] != "rent" {
		t.Errorf("history after recovery = %v", hist)
	}
	h2, ok := p2.Lookup("Account")
	if !ok {
		t.Fatal("Lookup failed after recovery")
	}
	if got := h2.Object().(*Account).Balance; got != 70 {
		t.Errorf("balance = %d, want 70", got)
	}
}

func TestPublicAPIInjector(t *testing.T) {
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	inj := phoenix.NewInjector().CrashAt(phoenix.PointServerAfterExecute, 1)
	cfg := testCfg()
	cfg.Injector = inj
	m.EnableAutoRestart(cfg, 2*time.Millisecond)
	p, err := m.StartProcess("bankd", cfg)
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Create("Account", &Account{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	if _, err := ref.Call("Deposit", 10, "m"); err != nil {
		t.Fatal(err)
	}
	if inj.Fired(phoenix.PointServerAfterExecute) != 1 {
		t.Error("injection did not fire")
	}
}

func TestPublicAPITCPNetwork(t *testing.T) {
	tcp := phoenix.NewTCPNetwork()
	defer tcp.Close()
	addr := "127.0.0.1:0"
	_ = addr
	// Dynamic port: listen on :0 is not supported by the address map
	// pattern, so pick a free port the usual way.
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{
		Dir: t.TempDir(),
		Net: tcp,
		AddrFor: func(machine, process string) string {
			return "127.0.0.1:39741"
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.StartProcess("bankd", testCfg())
	if err != nil {
		t.Skipf("port busy: %v", err)
	}
	defer p.Close()
	h, err := p.Create("Account", &Account{})
	if err != nil {
		t.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	res, err := ref.Call("Deposit", 5, "tcp")
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(int) != 5 {
		t.Errorf("Deposit over TCP -> %v", res[0])
	}
}

func TestBindStubOverPublicAPI(t *testing.T) {
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m, _ := u.AddMachine("evo1")
	p, err := m.StartProcess("bankd", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	h, err := p.Create("Account", &Account{})
	if err != nil {
		t.Fatal(err)
	}
	var client struct {
		Deposit   func(amount int, memo string) (int, error)
		Statement func() ([]string, error)
	}
	if err := phoenix.BindStub(&client, u.ExternalRef(h.URI())); err != nil {
		t.Fatal(err)
	}
	bal, err := client.Deposit(50, "typed")
	if err != nil || bal != 50 {
		t.Fatalf("Deposit = %d, %v", bal, err)
	}
	hist, err := client.Statement()
	if err != nil || len(hist) != 1 || hist[0] != "typed" {
		t.Errorf("Statement = %v, %v", hist, err)
	}
}

func TestMakeURI(t *testing.T) {
	u := phoenix.MakeURI("m", "p", "c")
	if u != phoenix.URI("phoenix://m/p/c") {
		t.Errorf("MakeURI = %q", u)
	}
}

// Example demonstrates the core loop: host a persistent component,
// crash the process, recover, observe intact state.
func Example() {
	dir, _ := os.MkdirTemp("", "phoenix-example-*")
	defer os.RemoveAll(dir)

	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	m, _ := u.AddMachine("evo1")
	cfg := phoenix.Config{LogMode: phoenix.LogOptimized, SpecializedTypes: true}
	p, _ := m.StartProcess("bankd", cfg)

	h, err := p.Create("Account", &Account{})
	if err != nil {
		log.Fatal(err)
	}
	ref := u.ExternalRef(h.URI())
	ref.Call("Deposit", 100, "payday")
	ref.Call("Deposit", -30, "rent")

	p.Crash() // all volatile state gone

	p, _ = m.StartProcess("bankd", cfg) // redo recovery replays the log
	res, _ := ref.Call("Deposit", 0, "check")
	fmt.Println("balance after crash:", res[0])
	p.Close()
	// Output: balance after crash: 70
}

// Receipt is an application value type; Till keeps the last one in an
// interface-typed state field.
type Receipt struct {
	Memo   string
	Amount int
}

type Till struct {
	Last any
	Log  []any
	Bag  map[string]any
}

func (t *Till) Ring(r Receipt) (Receipt, error) {
	t.Last = r
	t.Log = append(t.Log, r, r.Amount)
	return r, nil
}

// Stash keeps closed-set composite values — what any method may return —
// in interface-typed state.
func (t *Till) Stash(tags map[string]string, items []any, bag map[string]any) (int, error) {
	t.Last = tags
	t.Log = append(t.Log, items, tags)
	t.Bag = bag
	return len(t.Log), nil
}

// TestClosedSetValuesInInterfaceStateField: the codec's own composite
// types need no registration to sit in an interface-typed state field
// across a state save, a crash and recovery.
func TestClosedSetValuesInInterfaceStateField(t *testing.T) {
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.StartProcess("shopd", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Create("Till", &Till{})
	if err != nil {
		t.Fatal(err)
	}
	tags := map[string]string{"aisle": "7"}
	items := []any{"tea", 2, map[string]int{"qty": 3}}
	bag := map[string]any{"prices": map[string]float64{"tea": 1.5}, "more": []any{"x"}, "sub": map[string]any{"k": "v"}}
	if res, err := u.ExternalRef(h.URI()).Call("Stash", tags, items, bag); err != nil || res[0] != any(2) {
		t.Fatalf("Stash = %v, %v", res, err)
	}
	if err := h.SaveState(); err != nil {
		t.Fatalf("SaveState with closed-set composites in interface fields: %v", err)
	}
	p.Crash()
	p2, err := m.StartProcess("shopd", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	h2, ok := p2.Lookup("Till")
	if !ok {
		t.Fatal("Lookup failed after recovery")
	}
	want := &Till{Last: tags, Log: []any{items, tags}, Bag: bag}
	if till := h2.Object().(*Till); !reflect.DeepEqual(till, want) {
		t.Errorf("recovered till = %+v, want %+v", till, want)
	}
}

// TestRegisteredTypeInInterfaceStateField: RegisterType covers both
// places an application value can sit inside an interface — a method
// argument or result, and a component's saved state.
func TestRegisteredTypeInInterfaceStateField(t *testing.T) {
	phoenix.RegisterType(Receipt{})
	u, err := phoenix.NewUniverse(phoenix.UniverseConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m, err := u.AddMachine("evo1")
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.StartProcess("shopd", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	h, err := p.Create("Till", &Till{})
	if err != nil {
		t.Fatal(err)
	}
	want := Receipt{Memo: "coffee", Amount: 3}
	res, err := u.ExternalRef(h.URI()).Call("Ring", want)
	if err != nil || res[0] != any(want) {
		t.Fatalf("Ring = %v, %v", res, err)
	}
	if err := h.SaveState(); err != nil {
		t.Fatalf("SaveState with a registered value in an interface field: %v", err)
	}
	p.Crash()
	p2, err := m.StartProcess("shopd", testCfg())
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	h2, ok := p2.Lookup("Till")
	if !ok {
		t.Fatal("Lookup failed after recovery")
	}
	if till := h2.Object().(*Till); till.Last != any(want) || len(till.Log) != 2 || till.Log[0] != any(want) {
		t.Errorf("recovered till = %+v, want Last and Log[0] = %+v", till, want)
	}
}
