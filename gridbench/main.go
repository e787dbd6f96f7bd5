// Command gridbench is the gridrank benchmark. It loads a seeded
// catalog into an in-process internal/server behind a loopback
// listener, drives it over real HTTP with a single-process load
// generator, checks every answer against its own brute-force oracle,
// and prints the metrics BENCHMARK.json names.
//
//	gridbench --workload scan|hot|churn --seed N --seconds S --trace 0|1
//	gridbench compare BASE.jsonl CHANGE.jsonl
//
// Run it through run.sh, which builds it from the checkout first. See
// README.md for the workloads, metrics and layer table.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench:", err)
		os.Exit(1)
	}
}

// benchFile names the metrics to print, and workDir receives catalog
// files, span dumps and the result history; both are relative to the
// checkout root, where run.sh starts the benchmark.
const (
	benchFile = "BENCHMARK.json"
	workDir   = ".bench_build"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metrics to print, their units and bounds.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &s, nil
}

// record is one run's result as appended to the result history, the
// input of compare mode.
type record struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     int               `json:"seconds"`
	Trace       int               `json:"trace"`
	Fingerprint map[string]any    `json:"fingerprint"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Metrics     map[string]metric `json:"metrics"`
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := fs.Int64("seed", defaultSeed, fmt.Sprintf("input seed (tuned on %d; %d is held out)", defaultSeed, heldOutSeed))
	seconds := fs.Int("seconds", 20, "length of the timed window (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	rate := fs.Float64("rate", -1, "override hot's arrival rate in ops/s; 0 runs hot closed-loop to find its saturating rate")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		return errors.New("want --seconds >= 1, --trace 0 or 1 and no positional arguments")
	}
	spec, err := loadSpec(benchFile)
	if err != nil {
		return err
	}
	w, err := newWorkload(*name, *seed, *seconds, *rate)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	fp := fingerprint(w, *seconds)
	fpJSON, _ := json.Marshal(fp) // plain values only; cannot fail
	fmt.Printf("fingerprint %s\n", fpJSON)

	r, err := execute(w, *seconds, *trace == 1)
	if err != nil {
		return err
	}
	specs, computed := spec.EndToEnd, r.endToEnd()
	if *trace == 1 {
		specs, computed = spec.PerLayer, r.perLayer()
		fmt.Print(r.layerTable(computed))
		path, err := r.writeSpans()
		if err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans written to %s\n", path)
	}
	out := map[string]metric{}
	var unsupported []string
	for _, ms := range specs {
		v, ok := computed[ms.Name]
		switch {
		case !ok && *trace == 0:
			return fmt.Errorf("workload %s has no value for end-to-end metric %s: too few samples or too many failed ops", w.Name, ms.Name)
		case !ok:
			v = metric{0, ms.Unit} // the workload has no samples for this layer metric
			unsupported = append(unsupported, ms.Name)
		case v.Unit != ms.Unit:
			return fmt.Errorf("metric %s is measured in %s, BENCHMARK.json says %s", ms.Name, v.Unit, ms.Unit)
		}
		out[ms.Name] = v
	}
	if len(unsupported) > 0 {
		fmt.Printf("reported as 0, too few samples on this workload: %s\n", strings.Join(unsupported, " "))
	}
	// CPU time the hypervisor gave other guests slows every latency; a
	// run with much of it is suspect, whatever its numbers say.
	if rt := r.passes[0].rt; rt.ticks > 0 {
		fp["steal_frac"] = rt.steal / rt.ticks
		fmt.Printf("cpu steal during the untraced window: %.1f%%\n", 100*rt.steal/rt.ticks)
	}
	rec := record{Workload: w.Name, Seed: w.Seed, Seconds: *seconds, Trace: *trace,
		Fingerprint: fp, Correct: true, Metrics: out}
	for i, p := range r.passes {
		a, f, _ := counts(p.samples, i == 0)
		rec.Attempted, rec.Failed = rec.Attempted+a, rec.Failed+f
	}
	if err := appendRecord(filepath.Join(workDir, "results.jsonl"), rec); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, out})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fingerprint describes the machine, build and inputs of a run.
func fingerprint(w *workload, seconds int) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if dirty {
			commit += "-dirty"
		}
	}
	return map[string]any{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit,
		"workload":   w.Name,
		"seed":       w.Seed,
		"seconds":    seconds,
		"params":     w.params(),
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
