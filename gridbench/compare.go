package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// compareMain compares two result histories (BASE, then CHANGE), one
// row per workload and metric: each side's median and quartiles, the
// pairs the change won, and a verdict.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: gridbench compare BASE.jsonl CHANGE.jsonl")
		return 2
	}
	spec, err := loadSpec(benchFile)
	if err == nil {
		var base, change []record
		if base, err = readRecords(args[0]); err == nil {
			if change, err = readRecords(args[1]); err == nil {
				err = compare(os.Stdout, spec, base, change)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench compare:", err)
		return 1
	}
	return 0
}

func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// series collects one metric's values per workload and trace mode, in
// file order, so the i-th runs of the two sides pair up.
func series(recs []record, workload string, trace int, metric string) []float64 {
	var xs []float64
	for _, r := range recs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict applies the rule of choosing-metrics §5 and §8. improved: the
// change wins at least nine tenths of the pairs and its median beats the
// base's by more than the base's interquartile spread. regressed: the
// change's median is worse by more than the metric's bound (for a
// metric without a bound, by the mirror of the improved rule), unless
// the base's own spread is wider than the bound and the runs overlap.
// unresolved: the base's spread is wider than the bound and not every
// change run beats every base run. unchanged otherwise.
func verdict(ms metricSpec, base, change []float64) (string, int, int) {
	better := func(x, y float64) bool {
		if ms.Better == "higher" {
			return x > y
		}
		return x < y
	}
	n := min(len(base), len(change))
	wins, losses := 0, 0
	for i := 0; i < n; i++ {
		switch {
		case better(change[i], base[i]):
			wins++
		case better(base[i], change[i]):
			losses++
		}
	}
	b1, bm, b3 := quartiles(append([]float64(nil), base...))
	_, cm, _ := quartiles(append([]float64(nil), change...))
	spread := b3 - b1
	allBetter, allWorse := true, true
	for _, c := range change {
		for _, b := range base {
			allBetter = allBetter && better(c, b)
			allWorse = allWorse && better(b, c)
		}
	}
	nine := float64(n) * 0.9
	if float64(wins) >= nine && better(cm, bm) && math.Abs(cm-bm) > spread {
		return "improved", wins, n
	}
	if ms.Bound == nil {
		if float64(losses) >= nine && better(bm, cm) && math.Abs(cm-bm) > spread {
			return "regressed", wins, n
		}
		return "unchanged", wins, n
	}
	bound := *ms.Bound * math.Abs(bm)
	wide := spread > bound
	if better(bm, cm) && math.Abs(cm-bm) > bound && (!wide || allWorse) {
		return "regressed", wins, n
	}
	if wide && !allBetter {
		return "unresolved", wins, n
	}
	return "unchanged", wins, n
}

func compare(out io.Writer, spec *benchSpec, base, change []record) error {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase median [q1, q3]\tchange median [q1, q3]\twins\tverdict\t")
	rows := 0
	for _, wl := range workloadNames {
		for trace, specs := range [][]metricSpec{spec.EndToEnd, spec.PerLayer} {
			for _, ms := range specs {
				a, b := series(base, wl, trace, ms.Name), series(change, wl, trace, ms.Name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				v, wins, n := verdict(ms, a, b)
				a1, am, a3 := quartiles(append([]float64(nil), a...))
				b1, bm, b3 := quartiles(append([]float64(nil), b...))
				fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%d/%d\t%s\t\n",
					wl, ms.Name, ms.Unit, am, a1, a3, bm, b1, b3, wins, n, v)
				rows++
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if rows == 0 {
		return fmt.Errorf("no workload and metric has results on both sides")
	}
	return nil
}
