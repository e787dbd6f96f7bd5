// Command rrqdiag captures and validates one-shot diagnostics bundles
// for incident forensics.
//
// Fetch a live server's bundle from its operator listener (rrqserver
// -pprof-addr) — goroutine dump, runtime stats,
// OpenMetrics snapshot with exemplars, flight-recorder digests, kept
// traces, index metadata, sanitized config — all captured in the same
// instant, checksummed in a manifest:
//
//	rrqdiag -server http://localhost:6060 -out rrq-diag.tar.gz
//
// Build a local bundle from an index file when no server is running:
//
//	rrqdiag -index catalogue.gri -out rrq-diag.tar.gz
//
// Validate and summarize any bundle:
//
//	rrqdiag -inspect rrq-diag.tar.gz
package main

import (
	"fmt"
	"os"

	"gridrank/internal/cli"
)

func main() {
	if err := cli.RunDiag(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rrqdiag:", err)
		os.Exit(1)
	}
}
