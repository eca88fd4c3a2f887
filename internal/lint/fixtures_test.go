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
	linttest.Run(t, "testdata/forcesite", fixturePrefix+"forcesite",
		[]*lint.Analyzer{lint.NewForcesite(lint.ForcesiteConfig{}, allow)})
}

func TestWallclockFixture(t *testing.T) {
	allow := mustAllow(t,
		"wallclock "+fixturePrefix+"wallclock.instrumented # deliberate wall-time instrumentation\n")
	linttest.Run(t, "testdata/wallclock", fixturePrefix+"wallclock",
		[]*lint.Analyzer{lint.NewWallclock(lint.WallclockConfig{
			Packages: []string{fixturePrefix + "wallclock"},
		}, allow)})
}

func TestLocksyncFixture(t *testing.T) {
	linttest.Run(t, "testdata/locksync", fixturePrefix+"locksync",
		[]*lint.Analyzer{lint.NewLocksync(lint.LocksyncConfig{
			Packages: []string{fixturePrefix + "locksync"},
		}, nil)})
}

func TestExhaustiveFixture(t *testing.T) {
	linttest.Run(t, "testdata/exhaustive", fixturePrefix+"exhaustive",
		[]*lint.Analyzer{lint.NewExhaustive(lint.ExhaustiveConfig{}, nil)})
}

func TestLockOrderFixture(t *testing.T) {
	p := fixturePrefix + "lockorder"
	linttest.Run(t, "testdata/lockorder", p,
		[]*lint.Analyzer{lint.NewLockOrder(lint.LockOrderConfig{
			Packages: []string{p},
			Order: []string{
				p + ".slots",
				p + ".A.mu",
				p + ".B.mu",
				p + ".C.mu",
				p + ".E.mu",
				p + ".F.mu",
				p + ".G.ready",
			},
			Semaphores: []string{p + ".slots"},
			Latches:    []string{p + ".G.ready"},
		}, nil)})
}

func TestPoolLifeFixture(t *testing.T) {
	p := fixturePrefix + "poollife"
	linttest.Run(t, "testdata/poollife", p,
		[]*lint.Analyzer{lint.NewPoolLife(lint.PoolLifeConfig{
			Packages: []string{p},
			Get:      []string{p + ".getBuf"},
			Free:     []string{p + ".freeBuf"},
			Payloads: []string{p + ".Record.Payload"},
			Windows:  []string{"(*" + p + ".Reader).ReadAt"},
		}, nil)})
}

func TestShutdownPathFixture(t *testing.T) {
	p := fixturePrefix + "shutdownpath"
	linttest.Run(t, "testdata/shutdownpath", p,
		[]*lint.Analyzer{lint.NewShutdownPath(lint.ShutdownPathConfig{
			Packages: []string{p},
			Latches:  []string{p + ".Gate.ready"},
		}, nil)})
}

func TestDroppedErrFixture(t *testing.T) {
	p := fixturePrefix + "droppederr"
	linttest.Run(t, "testdata/droppederr", p,
		[]*lint.Analyzer{lint.NewDroppedErr(lint.DroppedErrConfig{
			Packages: []string{p},
			Guarded: []string{
				p + ".syncDevice",
				p + ".readDevice",
				"(*" + p + ".Dev).Close",
			},
		}, nil)})
}

func TestMetricNamesFixture(t *testing.T) {
	linttest.Run(t, "testdata/metricnames", fixturePrefix+"metricnames",
		[]*lint.Analyzer{lint.NewMetricNames(lint.MetricNamesConfig{
			ObsPath: fixturePrefix + "metricnames",
		}, nil)})
}
