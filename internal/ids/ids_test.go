package ids

import (
	"testing"
	"testing/quick"
)

func TestComponentAddrString(t *testing.T) {
	a := ComponentAddr{Machine: "evo1", Proc: 3, Comp: 7}
	if got, want := a.String(), "evo1/3/7"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestComponentAddrIsZero(t *testing.T) {
	if !(ComponentAddr{}).IsZero() {
		t.Error("zero ComponentAddr should be zero")
	}
	for _, a := range []ComponentAddr{
		{Machine: "m"},
		{Proc: 1},
		{Comp: 1},
	} {
		if a.IsZero() {
			t.Errorf("%+v should not be zero", a)
		}
	}
}

func TestCallIDIsZero(t *testing.T) {
	if !(CallID{}).IsZero() {
		t.Error("zero CallID should be zero (external caller)")
	}
	c := CallID{Caller: ComponentAddr{Machine: "m", Proc: 1, Comp: 2}, Seq: 1}
	if c.IsZero() {
		t.Error("non-zero CallID reported zero")
	}
}

func TestCallIDString(t *testing.T) {
	c := CallID{Caller: ComponentAddr{Machine: "evo2", Proc: 1, Comp: 4}, Seq: 99}
	if got, want := c.String(), "evo2/1/4#99"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestMakeURIAndSplit(t *testing.T) {
	u := MakeURI("evo1", "shopd", "PriceGrabber")
	if u != URI("phoenix://evo1/shopd/PriceGrabber") {
		t.Fatalf("MakeURI = %q", u)
	}
	m, p, c, err := u.Split()
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	if m != "evo1" || p != "shopd" || c != "PriceGrabber" {
		t.Errorf("Split = %q %q %q", m, p, c)
	}
	if u.Machine() != "evo1" {
		t.Errorf("Machine() = %q", u.Machine())
	}
	if !u.Valid() {
		t.Error("Valid() = false for canonical URI")
	}
}

func TestURISplitErrors(t *testing.T) {
	bad := []URI{
		"",
		"http://evo1/p/c",
		"phoenix://evo1/p",
		"phoenix://evo1/p/c/d",
		"phoenix:///p/c",
		"phoenix://m//c",
		"phoenix://m/p/",
	}
	for _, u := range bad {
		if _, _, _, err := u.Split(); err == nil {
			t.Errorf("Split(%q) succeeded, want error", u)
		}
		if u.Valid() {
			t.Errorf("Valid(%q) = true, want false", u)
		}
		if u.Machine() != "" {
			t.Errorf("Machine(%q) = %q, want empty", u, u.Machine())
		}
	}
}

// TestURISplitAllocs: Split runs several times on every call path
// (address resolution, request routing), so it must not allocate.
func TestURISplitAllocs(t *testing.T) {
	u := MakeURI("evo1", "shopd", "PriceGrabber")
	if n := testing.AllocsPerRun(100, func() {
		if _, _, _, err := u.Split(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Split allocates %v objects per call, want 0", n)
	}
}

func TestURIRoundTripProperty(t *testing.T) {
	// For names without '/' the URI round-trips exactly.
	f := func(mRaw, pRaw, cRaw uint16) bool {
		m := "m" + string(rune('a'+mRaw%26))
		p := "p" + string(rune('a'+pRaw%26))
		c := "c" + string(rune('a'+cRaw%26))
		gm, gp, gc, err := MakeURI(m, p, c).Split()
		return err == nil && gm == m && gp == p && gc == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLSN(t *testing.T) {
	if !NilLSN.IsNil() {
		t.Error("NilLSN should be nil")
	}
	if LSN(1).IsNil() {
		t.Error("LSN(1) should not be nil")
	}
	if got, want := LSN(42).String(), "lsn:42"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}
