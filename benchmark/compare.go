package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
)

// minPairs is the fewest parent/change pairs a verdict rests on.
const minPairs = 10

// benchmarkFile is the part of BENCHMARK.json compare reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// readRecords reads the untraced result sets of a results file, by
// workload, in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for n := 1; sc.Scan(); n++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if !r.Trace {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// verdict compares a metric's parent and change samples, pair i being
// the i-th run of each. A gain needs the change to win nine tenths of
// the pairs and the medians to differ by more than the parent's own
// quartile spread; a spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run.
func verdict(parent, change []float64, higherBetter bool, bound float64) (v string, wins int) {
	// Flip lower-is-better metrics so that larger always reads better.
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	for i := range parent {
		if sign*change[i] > sign*parent[i] {
			wins++
		}
	}
	pq1, pm, pq3 := quartiles(parent)
	_, cm, _ := quartiles(change)
	worse := sign * ratio(pm-cm, pm)
	allBetter := slices.Max(parent) < slices.Min(change)
	if !higherBetter {
		allBetter = slices.Min(parent) > slices.Max(change)
	}
	switch {
	case 10*wins >= 9*len(parent) && math.Abs(cm-pm) > pq3-pq1:
		return "improved", wins
	case ratio(pq3-pq1, pm) > bound && !allBetter:
		return "unresolved", wins
	case worse > bound:
		return "worse", wins
	}
	return "no worse", wins
}

// compareMain implements "compare parent.jsonl change.jsonl": one row
// per workload and end-to-end metric, then whether the simulated
// statistics and failure counts agree.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("bench", "", "BENCHMARK.json holding the bounds (default: ./BENCHMARK.json or ../BENCHMARK.json)")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: benchmark compare [-bench BENCHMARK.json] parent.jsonl change.jsonl")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	path := *benchPath
	if path == "" {
		path = "BENCHMARK.json"
		if _, err := os.Stat(path); err != nil {
			path = "../BENCHMARK.json"
		}
	}
	bf, err := loadBenchmarkFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 2
	}
	parent, err := readRecords(fs.Arg(0))
	if err == nil {
		var change map[string][]record
		if change, err = readRecords(fs.Arg(1)); err == nil {
			return compareRecords(bf, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	return 2
}

func compareRecords(bf *benchmarkFile, parent, change map[string][]record) int {
	rc := 0
	fmt.Printf("%-13s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "parent", "change", "delta", "wins", "verdict")
	for _, w := range workloadNames {
		ps, cs := parent[w], change[w]
		n := min(len(ps), len(cs))
		if n == 0 {
			continue
		}
		ps, cs = ps[:n], cs[:n]
		for _, m := range bf.EndToEnd {
			pv, cv := make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				pv[i], cv[i] = ps[i].Metrics[m.Name].Value, cs[i].Metrics[m.Name].Value
			}
			v, wins := verdict(pv, cv, m.Better == "higher", m.Bound)
			if n < minPairs {
				v = "unresolved (fewer than 10 pairs)"
			}
			if v == "worse" {
				rc = 1
			}
			pm, cm := median(pv), median(cv)
			fmt.Printf("%-13s %-16s %14.6g %14.6g %+7.2f%% %3d/%-2d  %s\n",
				w, m.Name, pm, cm, 100*ratio(cm-pm, pm), wins, n, v)
		}
		same, differ, failed := 0, 0, 0
		for i := 0; i < n; i++ {
			failed += ps[i].Failed + cs[i].Failed
			if ps[i].Seed != cs[i].Seed {
				continue
			}
			if ps[i].StatsSHA256 == cs[i].StatsSHA256 {
				same++
			} else {
				differ++
			}
		}
		switch {
		case differ > 0:
			fmt.Printf("%-13s stats_sha256 differs in %d of %d same-seed pairs: simulated statistics changed\n", w, differ, same+differ)
		case same > 0:
			fmt.Printf("%-13s stats_sha256 equal in all %d same-seed pairs\n", w, same)
		default:
			fmt.Printf("%-13s stats_sha256 not compared: no pair shares a seed\n", w)
		}
		if failed > 0 {
			fmt.Printf("%-13s %d failed operations\n", w, failed)
			rc = 1
		}
	}
	return rc
}
