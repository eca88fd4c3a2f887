package phoenix_test

import (
	"testing"

	"repro/internal/bookstore"
	"repro/internal/serial"
)

// TestAllocsCheckpointPath is the checkpoint path's counterpart of
// internal/core's TestAllocsCallPath: saving and restoring a
// component's state must stay a handful of allocations — the State, its
// field list, one buffer for the values, the encoding; names, data and
// the restored values coming back — not an encoder and a decoder per
// field. The components are the two the benchmark times
// (serial.capture_ns, serial.restore_ns): its Counter and the
// bookstore's three-book inventory. Measured 4 + 4 and 7 + 13 (17 + 21
// and 29 + 190 with a gob stream per field); the gates are those
// figures plus ~25 %.
func TestAllocsCheckpointPath(t *testing.T) {
	inv, _ := bookstore.Inventories()
	for _, tc := range []struct {
		name             string
		obj, fresh       any
		capture, restore float64 // gates
	}{
		{"Counter", &Counter{N: 41}, new(Counter), 5, 5},
		{"BookStore", &bookstore.BookStore{Inventory: inv}, new(bookstore.BookStore), 9, 16},
	} {
		var data []byte
		capture := testing.AllocsPerRun(200, func() {
			st, err := serial.Capture(tc.obj)
			if err == nil {
				data, err = st.Encode()
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		restore := testing.AllocsPerRun(200, func() {
			st, err := serial.DecodeState(data)
			if err == nil {
				err = serial.Restore(tc.fresh, st, nil)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: capture+encode %.0f allocs, decode+restore %.0f allocs, %d bytes", tc.name, capture, restore, len(data))
		if capture > tc.capture {
			t.Errorf("%s: Capture+Encode allocates %.0f objects, gate %.0f", tc.name, capture, tc.capture)
		}
		if restore > tc.restore {
			t.Errorf("%s: DecodeState+Restore allocates %.0f objects, gate %.0f", tc.name, restore, tc.restore)
		}
	}
}
