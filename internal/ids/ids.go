// Package ids defines the identifier types used throughout Phoenix/App:
// globally unique method-call IDs, logical process and component IDs,
// component URIs, and log sequence numbers.
//
// Following Section 2.3 of the paper, the globally unique ID of a method
// call consists of the caller's machine name, a logical process ID on
// that machine (assigned by the Phoenix runtime and stable across
// failures), a logical component ID within the process (also stable),
// and a local method-call sequence number incremented for every outgoing
// method call of the component. The first three parts together identify
// the calling component; the last makes the call unique and is
// deterministically re-derived after a failure from the log.
package ids

import (
	"fmt"
	"strconv"
	"strings"
)

// LSN is a log sequence number: the byte offset of a record in a
// process-local log stream. LSNs are strictly increasing within a
// stream.
//
// Sharded logs (internal/wal.Set) qualify LSNs with a stream tag in
// the top byte. A Set's streams are tagged from 1; stream 0 is the tag
// of a bare wal.Log, whose LSNs are therefore plain byte offsets.
// Stream tags are assigned monotonically across reshard eras, so comparing
// two raw LSNs orders them first by era (temporal order) and then by
// offset within a stream — which is exactly the order recovery and
// the checkpoint watermark rely on.
type LSN uint64

// NilLSN marks an absent LSN (e.g. a last-call entry whose reply has not
// been written to the log).
const NilLSN LSN = 0

const (
	// lsnStreamShift puts the stream tag in the LSN's top byte,
	// leaving 56 bits of byte offset (72 PB per stream).
	lsnStreamShift = 56
	lsnOffsetMask  = LSN(1)<<lsnStreamShift - 1

	// MaxStream is the largest stream tag an LSN can carry.
	MaxStream = 255
)

// IsNil reports whether the LSN is the reserved "absent" value.
func (l LSN) IsNil() bool { return l == NilLSN }

// Stream returns the log stream the LSN belongs to. Stream 0 is a
// bare wal.Log.
func (l LSN) Stream() uint32 { return uint32(l >> lsnStreamShift) }

// Offset returns the byte offset of the LSN within its stream.
func (l LSN) Offset() LSN { return l & lsnOffsetMask }

// StreamLSN builds a stream-qualified LSN from a stream tag and a byte
// offset. StreamLSN(0, off) == off: a bare wal.Log's LSNs.
func StreamLSN(stream uint32, off LSN) LSN {
	return LSN(stream)<<lsnStreamShift | off&lsnOffsetMask
}

func (l LSN) String() string {
	if s := l.Stream(); s != 0 {
		return "lsn:" + strconv.FormatUint(uint64(s), 10) + ":" +
			strconv.FormatUint(uint64(l.Offset()), 10)
	}
	return "lsn:" + strconv.FormatUint(uint64(l), 10)
}

// ProcID is the logical process ID assigned by the machine's recovery
// service. It survives process failures: a restarted process is handed
// the same logical ID so that method-call IDs remain stable.
type ProcID uint32

// CompID is the logical component ID within a process, assigned by the
// Phoenix runtime at component creation and stable across failures.
type CompID uint32

// ComponentAddr identifies a component instance globally: the first
// three parts of a method-call ID.
type ComponentAddr struct {
	Machine string
	Proc    ProcID
	Comp    CompID
}

// String renders the address as machine/proc/comp.
func (a ComponentAddr) String() string {
	return fmt.Sprintf("%s/%d/%d", a.Machine, a.Proc, a.Comp)
}

// IsZero reports whether the address is unset (used for calls from
// external components, which carry no Phoenix identity).
func (a ComponentAddr) IsZero() bool {
	return a.Machine == "" && a.Proc == 0 && a.Comp == 0
}

// CallID is the globally unique, deterministically derived ID attached
// to every outgoing method call from a persistent component
// (condition 2 of Section 2.2).
type CallID struct {
	Caller ComponentAddr
	Seq    uint64 // local method-call sequence number of the caller
}

// IsZero reports whether the CallID is absent, which marks the caller as
// an external component (Section 2.3: "If the ID does not exist, the
// caller must be an external component").
func (c CallID) IsZero() bool { return c.Caller.IsZero() && c.Seq == 0 }

func (c CallID) String() string {
	return fmt.Sprintf("%s#%d", c.Caller, c.Seq)
}

// URI names a component for remote reference, in the form
// phoenix://machine/process-name/component-name. Paper Section 4.2 saves
// remote component references as URIs in context state records.
type URI string

// MakeURI builds a component URI from its location parts.
func MakeURI(machine, process, component string) URI {
	return URI("phoenix://" + machine + "/" + process + "/" + component)
}

// Split decomposes a URI into machine, process and component names.
// It returns an error if the URI is not of the canonical form.
func (u URI) Split() (machine, process, component string, err error) {
	s := string(u)
	const scheme = "phoenix://"
	if !strings.HasPrefix(s, scheme) {
		return "", "", "", fmt.Errorf("ids: URI %q lacks %q scheme", u, scheme)
	}
	// Two cuts, not strings.Split: this runs several times per call and
	// must not allocate.
	machine, rest, _ := strings.Cut(s[len(scheme):], "/")
	process, component, _ = strings.Cut(rest, "/")
	if machine == "" || process == "" || component == "" || strings.Contains(component, "/") {
		return "", "", "", fmt.Errorf("ids: URI %q is not phoenix://machine/process/component", u)
	}
	return machine, process, component, nil
}

// Machine returns the machine part of the URI, or "" if malformed.
func (u URI) Machine() string {
	m, _, _, err := u.Split()
	if err != nil {
		return ""
	}
	return m
}

// Valid reports whether the URI parses.
func (u URI) Valid() bool {
	_, _, _, err := u.Split()
	return err == nil
}
