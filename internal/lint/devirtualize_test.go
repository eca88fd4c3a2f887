package lint

import (
	"slices"
	"testing"
)

// TestDevirtualizeAcrossPackages: core calls the log through wal.Writer,
// an interface it sees in wal's export data, while wal's own types are
// checked from source — two *types.Package values for one package. The
// call graph must still resolve core's Writer.SyncTo to the method a
// *wal.Set dispatches to, (*wal.Log).SyncTo, or the lock walker loses
// every lock taken behind the interface.
func TestDevirtualizeAcrossPackages(t *testing.T) {
	pkgs, err := Load("../..", "./internal/core", "./internal/wal")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	cg := newCallGraph()
	for _, pkg := range pkgs {
		cg.addPackage(&Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info})
	}
	const iface, impl = "(repro/internal/wal.Writer).SyncTo", "(*repro/internal/wal.Log).SyncTo"
	if _, ok := cg.ifaceCalls[iface]; !ok {
		t.Fatalf("no call to %s seen in core", iface)
	}
	if got := cg.devirtualize()[iface]; !slices.Contains(got, impl) {
		t.Errorf("%s devirtualizes to %v, want %s among them", iface, got, impl)
	}
}
