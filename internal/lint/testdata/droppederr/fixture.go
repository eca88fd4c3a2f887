// Fixture for the droppederr analyzer: syncDevice, readDevice,
// (*Dev).Close and (*Dev).Trim are configured as guarded durability
// calls.
package droppederr

import "errors"

type Dev struct{}

func (d *Dev) Close() error { return nil }

func (d *Dev) Trim(keep int) error { return nil }

func syncDevice() error { return errors.New("io") }

func readDevice() ([]byte, error) { return nil, errors.New("io") }

func otherOp() error { return nil }

func ignoredStmt() {
	syncDevice() // want `syncDevice error discarded \(result ignored\)`
}

func ignoredDefer(d *Dev) {
	defer d.Close() // want `error discarded \(deferred, result ignored\)`
}

func ignoredGo() {
	go syncDevice() // want `error discarded \(spawned, result ignored\)`
}

func ignoredMethod(d *Dev) {
	d.Trim(1) // want `\(\*.*Dev\)\.Trim error discarded \(result ignored\)`
}

func blankAssign() {
	_ = syncDevice() // want `syncDevice error assigned to _`
}

func blankSecond() {
	data, _ := readDevice() // want `readDevice error assigned to _`
	_ = data
}

// handled propagates both errors: nothing is flagged.
func handled() error {
	if err := syncDevice(); err != nil {
		return err
	}
	d := &Dev{}
	return d.Close()
}

// unguarded calls may drop their errors freely.
func unguarded() {
	otherOp()
	_ = otherOp()
}
