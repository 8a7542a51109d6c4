package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// gridbench compare [-bench BENCHMARK.json] PARENT CHANGE
//
// PARENT and CHANGE are directories or glob patterns of untraced run
// records. Runs pair up by workload and seed (run the two sides
// alternately, one seed per pair). For each workload and end-to-end metric
// the change is:
//   - regressed when its median is worse than the parent's by more than the
//     metric's bound in BENCHMARK.json;
//   - improved when it wins at least 9 in 10 pairs (ties count for neither)
//     over at least 10 pairs and the medians differ by more than the
//     parent's interquartile range;
//   - unresolved when the spread of either side is wider than the bound,
//     unless every change run reads better than every parent run;
//   - unchanged otherwise.

const minPairs = 10

// bound is one end-to-end metric's entry in BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type benchmarkFile struct {
	EndToEnd []bound `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

type compareRow struct {
	workload, metric string
	a, b             [3]float64 // quartiles
	pairs, wins      int
	verdict          string
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: gridbench compare [-bench BENCHMARK.json] PARENT CHANGE")
		return 2
	}
	data, err := os.ReadFile(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridbench compare:", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "gridbench compare:", err)
		return 2
	}
	var sides [2][]record
	for i, arg := range fs.Args() {
		if sides[i], err = loadRecords(arg); err != nil {
			fmt.Fprintln(os.Stderr, "gridbench compare:", err)
			return 2
		}
	}
	rows := compareRuns(sides[0], sides[1], bf.EndToEnd)
	status := 0
	fmt.Fprintf(w, "%-12s %-16s %28s %28s %7s  %s\n", "workload", "metric", "parent q1/median/q3", "change q1/median/q3", "won", "verdict")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12s %-16s %9.4g/%8.4g/%9.4g %9.4g/%8.4g/%9.4g %3d/%-3d  %s\n",
			r.workload, r.metric, r.a[0], r.a[1], r.a[2], r.b[0], r.b[1], r.b[2], r.wins, r.pairs, r.verdict)
		if r.verdict == "regressed" {
			status = 1
		}
	}
	return status
}

// loadRecords reads the untraced run records matching arg, a directory or
// a glob pattern.
func loadRecords(arg string) ([]record, error) {
	pattern := arg
	if st, err := os.Stat(arg); err == nil && st.IsDir() {
		pattern = filepath.Join(arg, "*.json")
	}
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	var out []record
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !rec.Trace && rec.Workload != "" {
			out = append(out, rec)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no untraced run records match %s", arg)
	}
	return out, nil
}

// compareRuns applies the rule above to every workload and metric.
func compareRuns(a, b []record, bounds []bound) []compareRow {
	type key struct {
		workload string
		seed     int64
	}
	index := func(rs []record) map[key]record {
		m := map[key]record{}
		for _, r := range rs {
			m[key{r.Workload, r.Seed}] = r
		}
		return m
	}
	ia, ib := index(a), index(b)
	var keys []key
	for k := range ia {
		if _, ok := ib[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].seed < keys[j].seed
	})
	var rows []compareRow
	for start := 0; start < len(keys); {
		end := start
		for end < len(keys) && keys[end].workload == keys[start].workload {
			end++
		}
		for _, bd := range bounds {
			var va, vb []float64
			for _, k := range keys[start:end] {
				ma, oka := ia[k].Metrics[bd.Name]
				mb, okb := ib[k].Metrics[bd.Name]
				if oka && okb {
					va = append(va, ma.Value)
					vb = append(vb, mb.Value)
				}
			}
			if len(va) > 0 {
				rows = append(rows, judge(keys[start].workload, bd, va, vb))
			}
		}
		start = end
	}
	return rows
}

// judge compares paired samples va (parent) and vb (change) of one metric.
func judge(workload string, bd bound, va, vb []float64) compareRow {
	row := compareRow{workload: workload, metric: bd.Name, pairs: len(va)}
	better := func(x, y float64) bool { // x better than y
		if bd.Better == "higher" {
			return x > y
		}
		return x < y
	}
	for i := range va {
		if better(vb[i], va[i]) {
			row.wins++
		}
	}
	qa, spreadA := spread(va)
	qb, spreadB := spread(vb)
	row.a, row.b = qa, qb
	worse := qb[1] > qa[1]*(1+bd.Bound)
	if bd.Better == "higher" {
		worse = qb[1] < qa[1]*(1-bd.Bound)
	}
	allBetter := true
	for _, x := range vb {
		for _, y := range va {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case worse:
		row.verdict = "regressed"
	case row.pairs >= minPairs && 10*row.wins >= 9*row.pairs && better(qb[1], qa[1]) && math.Abs(qb[1]-qa[1]) > qa[2]-qa[0]:
		row.verdict = "improved"
	case (spreadA > bd.Bound || spreadB > bd.Bound) && !allBetter:
		row.verdict = "unresolved"
	default:
		row.verdict = "unchanged"
	}
	return row
}

// spread returns the quartiles of xs and its IQR relative to the median;
// one sample has no spread.
func spread(xs []float64) ([3]float64, float64) {
	if len(xs) == 1 {
		return [3]float64{xs[0], xs[0], xs[0]}, 0
	}
	q1, q2, q3, err := quartiles(xs)
	if err != nil || q2 == 0 {
		return [3]float64{q1, q2, q3}, math.Inf(1)
	}
	return [3]float64{q1, q2, q3}, (q3 - q1) / math.Abs(q2)
}
