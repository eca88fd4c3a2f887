// Fixture for the exhaustive analyzer: switches over local enum types
// (integer and string), with and without full coverage, defaults and
// a bound sentinel.
package exhaustive

import "fmt"

type Kind int

const (
	KindA Kind = iota
	KindB
	KindC

	kindCount // bound sentinel: never required in switches
)

func good(k Kind) string {
	switch k {
	case KindA:
		return "a"
	case KindB:
		return "b"
	case KindC:
		return "c"
	}
	return ""
}

func goodDefault(k Kind) string {
	switch k {
	case KindA:
		return "a"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

func bad(k Kind) string {
	switch k { // want `switch over repro/internal/lint/testdata/exhaustive\.Kind is missing cases KindB, KindC and has no default`
	case KindA:
		return "a"
	}
	return ""
}

type mode string

const (
	modeOn  mode = "on"
	modeOff mode = "off"
)

func badString(m mode) bool {
	switch m { // want `switch over .*\.mode is missing cases modeOff and has no default`
	case modeOn:
		return true
	}
	return false
}

// syncOutcome mirrors the WAL's sync outcomes: a three-way
// enum whose switches must stay exhaustive as outcomes are added.
type syncOutcome int

const (
	syncClean syncOutcome = iota
	syncCombined
	syncIssued
)

func mergeOutcomes(a, b syncOutcome) syncOutcome {
	switch a {
	case syncClean:
		return b
	case syncCombined:
		if b == syncIssued {
			return b
		}
		return a
	case syncIssued:
		return a
	}
	return a
}

func badOutcome(o syncOutcome) string {
	switch o { // want `switch over .*\.syncOutcome is missing cases syncCombined, syncIssued and has no default`
	case syncClean:
		return "clean"
	}
	return ""
}

// recMode mirrors core.RecoveryMode: a two-value policy enum whose
// zero value is the default. Switches over it must name both modes or
// carry a default that renders strays.
type recMode int

const (
	recEager recMode = iota
	recLazy
)

func admit(m recMode) string {
	switch m {
	case recEager:
		return "eager"
	case recLazy:
		return "lazy"
	}
	return ""
}

func badMode(m recMode) bool {
	switch m { // want `switch over .*\.recMode is missing cases recLazy and has no default`
	case recEager:
		return false
	}
	return true
}

// discipline is a three-value logging-discipline enum shaped like
// core.LogMode and msg.ComponentType: its String() carries a default
// rendering strays; switches elsewhere must cover every discipline or
// carry a default.
type discipline int

const (
	discBase discipline = iota
	discAlgo2
	discRO
)

func disciplineName(d discipline) string {
	switch d {
	case discBase:
		return "baseline"
	case discAlgo2:
		return "algo2"
	case discRO:
		return "readonly"
	default:
		return fmt.Sprintf("discipline(%d)", int(d))
	}
}

func badDiscipline(d discipline) bool {
	switch d { // want `switch over .*\.discipline is missing cases discAlgo2, discRO and has no default`
	case discBase:
		return false
	}
	return true
}

// plain built-in types are not enums; nothing to flag.
func notEnum(n int) int {
	switch n {
	case 1:
		return 1
	}
	return 0
}

// untagged switches are ordinary conditionals; nothing to flag.
func untagged(k Kind) bool {
	switch {
	case k == KindA:
		return true
	}
	return false
}
