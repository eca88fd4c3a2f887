// Command phoenix-logdump prints a process recovery log human-readably:
// one line per record — its LSN, kind, payload+frame bytes, call
// identities, context IDs, checkpoint structure (each context's restart
// LSN and chain head), state-record summaries, and for a message record
// the record of its context it links back to (prev=<LSN>) — under a
// header with the checkpoint marks and over a summary with the LSN range
// its one scan found and the stable watermarks (marks and watermarks from
// the directory's shards.meta): the tool for "what would recovery replay?".
//
//	phoenix-logdump /path/to/state/machine/process.log
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: phoenix-logdump <log-directory>")
		os.Exit(2)
	}
	if err := core.DumpLog(os.Stdout, os.Args[1]); err != nil {
		fmt.Fprintf(os.Stderr, "phoenix-logdump: %v\n", err)
		os.Exit(1)
	}
}
