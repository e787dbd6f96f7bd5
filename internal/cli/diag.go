package cli

// The rrqdiag tool: one-shot diagnostics capture for incident forensics.
// Three modes, mutually exclusive:
//
//	rrqdiag -server http://localhost:6060 -out rrq-diag.tar.gz
//	rrqdiag -index catalogue.gri [-mmap] -out rrq-diag.tar.gz
//	rrqdiag -inspect rrq-diag.tar.gz
//
// Server mode fetches GET /debug/bundle from a live rrqserver's
// operator listener (its -pprof-addr, not the query port) — the
// whole point-in-time capture (goroutines, runtime stats, OpenMetrics
// snapshot, flight-recorder digests, kept traces, index metadata,
// sanitized config) assembled in one instant on the server. Index mode
// builds a smaller bundle locally from an index file when no server is
// running. Inspect mode validates any bundle's manifest (sizes and
// SHA-256 per entry, no missing or unlisted files) and prints its
// contents. Every fetched or built bundle is validated before it is
// written, so a truncated download never lands on disk as a plausible
// artifact.

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"gridrank"
	"gridrank/internal/diag"
)

// RunDiag runs the rrqdiag tool against args, writing human output to w.
func RunDiag(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("rrqdiag", flag.ContinueOnError)
	fs.SetOutput(w)
	server := fs.String("server", "", "base URL of a live rrqserver's -pprof-addr listener; fetches its /debug/bundle")
	index := fs.String("index", "", "index file; builds a local bundle without a server")
	useMmap := fs.Bool("mmap", false, "memory-map the -index file (GRI3) instead of reading it onto the heap")
	inspect := fs.String("inspect", "", "existing bundle to validate and summarize")
	out := fs.String("out", "rrq-diag.tar.gz", "output bundle path (server and index modes)")
	timeout := fs.Duration("timeout", 30*time.Second, "HTTP timeout for -server mode")
	if err := fs.Parse(args); err != nil {
		return err
	}
	modes := 0
	for _, set := range []bool{*server != "", *index != "", *inspect != ""} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("exactly one of -server, -index or -inspect is required")
	}
	if *useMmap && *index == "" {
		return fmt.Errorf("-mmap requires -index")
	}
	switch {
	case *inspect != "":
		return inspectBundle(w, *inspect)
	case *server != "":
		return fetchBundle(w, *server, *out, *timeout)
	default:
		return indexBundle(w, *index, *useMmap, *out)
	}
}

// fetchBundle downloads a live server's bundle, validates it, and only
// then writes it to disk.
func fetchBundle(w io.Writer, base, out string, timeout time.Duration) error {
	url := strings.TrimSuffix(base, "/") + "/debug/bundle"
	client := &http.Client{Timeout: timeout}
	resp, err := client.Get(url)
	if err != nil {
		return fmt.Errorf("fetch %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("fetch %s: status %s", url, resp.Status)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("fetch %s: %w", url, err)
	}
	m, files, err := diag.ReadBundle(bytes.NewReader(raw))
	if err != nil {
		return fmt.Errorf("fetched bundle unreadable: %w", err)
	}
	if err := diag.Validate(m, files); err != nil {
		return fmt.Errorf("fetched bundle failed validation: %w", err)
	}
	if err := os.WriteFile(out, raw, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d bytes, %d entries, source %s)\n", out, len(raw), len(m.Entries), m.Source)
	return summarize(w, m)
}

// indexBundle builds a local bundle from an index file: process state
// plus the index's own metadata and flight counters. It is the
// no-server fallback — less than the server's capture (no metrics
// scrape, traces or live config), but enough to answer "what was this
// index and what shape is this process in".
func indexBundle(w io.Writer, path string, useMmap bool, out string) error {
	var (
		ix  *gridrank.Index
		err error
	)
	if useMmap {
		ix, err = gridrank.LoadMmap(path)
	} else {
		ix, err = gridrank.Load(path)
	}
	if err != nil {
		return err
	}
	defer ix.Close()

	meta := map[string]interface{}{
		"file":            path,
		"dim":             ix.Dim(),
		"epoch":           ix.Epoch(),
		"products":        ix.NumProducts(),
		"preferences":     ix.NumPreferences(),
		"pointGroups":     ix.PointGroups(),
		"weightGroups":    ix.WeightGroups(),
		"gridPartitions":  ix.GridPartitions(),
		"gridMemoryBytes": ix.GridMemoryBytes(),
		"resident":        ix.Resident(),
	}
	flight := map[string]interface{}{"enabled": ix.FlightEnabled()}
	if ix.FlightEnabled() {
		flight["counts"] = ix.FlightCounts()
		flight["records"] = ix.FlightRecords()
	}
	files := []diag.File{
		{Name: "goroutines.txt", Data: diag.Goroutines()},
		{Name: "runtime.json", Data: diag.RuntimeSnapshot()},
		{Name: "index.json", Data: diag.MustJSON(meta)},
		{Name: "flight.json", Data: diag.MustJSON(flight)},
	}
	var buf bytes.Buffer
	if err := diag.WriteBundle(&buf, "index", files); err != nil {
		return err
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%d bytes, %d entries, source index)\n", out, buf.Len(), len(files))
	return nil
}

// inspectBundle validates a bundle on disk and prints its manifest.
func inspectBundle(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, files, err := diag.ReadBundle(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := diag.Validate(m, files); err != nil {
		return fmt.Errorf("%s: validation failed: %w", path, err)
	}
	fmt.Fprintf(w, "%s: valid (source %s, created %s, %s)\n",
		path, m.Source, m.CreatedAt.Format(time.RFC3339), m.GoVersion)
	return summarize(w, m)
}

func summarize(w io.Writer, m diag.Manifest) error {
	for _, e := range m.Entries {
		fmt.Fprintf(w, "  %-20s %8d bytes  sha256:%s\n", e.Name, e.Bytes, e.SHA256[:12])
	}
	return nil
}
