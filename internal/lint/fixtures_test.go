package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

const fixturePrefix = "repro/internal/lint/testdata/"

// mustAllow builds a fixture-scoped allowlist.
func mustAllow(t *testing.T, src string) *lint.Allowlist {
	t.Helper()
	a, err := lint.ParseAllowlist("fixture.allow", []byte(src))
	if err != nil {
		t.Fatalf("parse fixture allowlist: %v", err)
	}
	return a
}

func TestForcesiteFixture(t *testing.T) {
	allow := mustAllow(t,
		"forcesite "+fixturePrefix+"forcesite.blessedAppend # fixture chokepoint\n")
	linttest.Run(t, "testdata/forcesite", fixturePrefix+"forcesite", allow, lint.NewForcesite())
}

func TestWallclockFixture(t *testing.T) {
	allow := mustAllow(t,
		"wallclock "+fixturePrefix+"wallclock.instrumented # deliberate wall-time instrumentation\n")
	linttest.Run(t, "testdata/wallclock", fixturePrefix+"wallclock", allow,
		lint.NewWallclock(lint.WallclockConfig{
			Packages: []string{fixturePrefix + "wallclock"},
		}))
}

func TestExhaustiveFixture(t *testing.T) {
	linttest.Run(t, "testdata/exhaustive", fixturePrefix+"exhaustive", nil, lint.NewExhaustive())
}

func TestLockOrderFixture(t *testing.T) {
	p := fixturePrefix + "lockorder"
	linttest.Run(t, "testdata/lockorder", p, nil,
		lint.NewLockOrder(lint.LockOrderConfig{
			Packages: []string{p},
			Order: []string{
				p + ".A.mu",
				p + ".B.mu",
				p + ".C.mu",
				p + ".E.mu",
				p + ".F.mu",
				p + ".G.ready",
			},
			Latches: []string{p + ".G.ready"},
		}))
}

// TestLocksyncFixture checks the lock order's device rung: no device
// sync or sleep while a mutex ranked below device is held.
func TestLocksyncFixture(t *testing.T) {
	p := fixturePrefix + "lockorder/device"
	linttest.Run(t, "testdata/lockorder/device", p, nil,
		lint.NewLockOrder(lint.LockOrderConfig{
			Packages: []string{p},
			Order:    []string{p + ".ctx.mu", "device", p + ".store.mu"},
		}))
}

func TestPoolLifeFixture(t *testing.T) {
	p := fixturePrefix + "poollife"
	linttest.Run(t, "testdata/poollife", p, nil,
		lint.NewPoolLife(lint.PoolLifeConfig{
			Packages: []string{p},
			Get:      []string{p + ".getBuf"},
			Free:     []string{p + ".freeBuf"},
			Payloads: []string{p + ".Record.Payload"},
			Windows:  []string{"(*" + p + ".Reader).ReadAt"},
		}))
}

func TestShutdownPathFixture(t *testing.T) {
	p := fixturePrefix + "shutdownpath"
	linttest.Run(t, "testdata/shutdownpath", p, nil,
		lint.NewShutdownPath(lint.ShutdownPathConfig{
			Packages: []string{p},
			Latches:  []string{p + ".Gate.ready"},
		}))
}

func TestDroppedErrFixture(t *testing.T) {
	p := fixturePrefix + "droppederr"
	linttest.Run(t, "testdata/droppederr", p, nil,
		lint.NewDroppedErr(lint.DroppedErrConfig{
			Packages: []string{p},
			Guarded: []string{
				p + ".syncDevice",
				p + ".readDevice",
				"(*" + p + ".Dev).Close",
			},
		}))
}
