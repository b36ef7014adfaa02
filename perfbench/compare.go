package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metrics it reports, with their units, directions and bounds.
type benchSpec struct {
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

func loadSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// names lists the metrics a run reports: the per-layer ones on a traced
// run, the end-to-end ones otherwise.
func (s *benchSpec) names(traced bool) []string {
	var out []string
	if traced {
		for _, m := range s.PerLayer {
			out = append(out, m.Name)
		}
		return out
	}
	for _, m := range s.EndToEnd {
		out = append(out, m.Name)
	}
	return out
}

// units maps every metric name to its unit.
func (s *benchSpec) units() map[string]string {
	u := map[string]string{}
	for _, m := range s.EndToEnd {
		u[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		u[m.Name] = m.Unit
	}
	return u
}

// metricRule is how one metric is judged.
type metricRule struct {
	name   string
	lower  bool    // lower is better
	bound  float64 // NaN for per-layer metrics, which have no bound
	traced bool
}

// compareMain diffs two result sets by metric name, one row per
// workload and metric: each side's median and quartiles, the bound,
// the verdict and the pair-win count, and whether the digests agree.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("perfbench compare", flag.ContinueOnError)
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare [--bench BENCHMARK.json] BASE.jsonl CHANGE.jsonl")
		return 2
	}
	rules, err := loadRules(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	base, err := loadRecords(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	change, err := loadRecords(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench compare: %v\n", err)
		return 2
	}
	var workloads []string
	for w := range base {
		if _, ok := change[w]; ok {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	worse := false
	fmt.Printf("%-8s %-30s %-30s %-30s %6s  %-10s %s\n", "workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "bound", "verdict", "wins")
	for _, w := range workloads {
		for _, rule := range rules {
			a, b := values(base[w], rule), values(change[w], rule)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			v, wins, pairs := judge(rule, a, b, pairUp(base[w], change[w], rule))
			if v == "worse" {
				worse = true
			}
			bound := "-"
			if !math.IsNaN(rule.bound) {
				bound = fmt.Sprintf("%.3f", rule.bound)
			}
			fmt.Printf("%-8s %-30s %-30s %-30s %6s  %-10s %d/%d\n", w, rule.name, summary(a), summary(b), bound, v, wins, pairs)
		}
		same, shared := sameDigests(base[w], change[w])
		verdict := "equal"
		if same < shared {
			verdict = "DIFFER"
		}
		fmt.Printf("%-8s digests %s: %d of %d shared seeds give the same digest\n", w, verdict, same, shared)
	}
	if worse {
		return 1
	}
	return 0
}

func loadRules(path string) ([]metricRule, error) {
	spec, err := loadSpec(path)
	if err != nil {
		return nil, err
	}
	var rules []metricRule
	for _, m := range spec.EndToEnd {
		rules = append(rules, metricRule{name: m.Name, lower: m.Better == "lower", bound: m.Bound})
	}
	for _, m := range spec.PerLayer {
		rules = append(rules, metricRule{name: m.Name, lower: m.Better == "lower", bound: math.NaN(), traced: true})
	}
	return rules, nil
}

func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Schema != recordSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, recordSchema)
		}
		out[r.Workload] = append(out[r.Workload], r)
	}
	return out, sc.Err()
}

// values collects a metric's values over the runs of matching kind,
// in run order.
func values(rs []record, rule metricRule) []float64 {
	var v []float64
	for _, r := range rs {
		if m, ok := r.Metrics[rule.name]; ok && r.Trace == rule.traced {
			v = append(v, m.Value)
		}
	}
	return v
}

// quartiles are Python's statistics.quantiles(data, n=4) with its
// default exclusive method, the definition the bounds are checked by.
func quartiles(data []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	ld := len(d)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

func summary(v []float64) string {
	q1, q2, q3 := quartiles(v)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q2, q1, q3)
}

// judge gives the verdict of change (b) against base (a). Worse: the
// change's median is worse than the base's by more than the bound.
// Unresolved: either side's quartile spread exceeds the bound, unless
// every change run beats every base run. Better: the medians differ by
// more than the base's own quartile spread and the change wins at least
// nine in ten pairs. Otherwise unchanged. Per-layer metrics have no
// bound and are judged by the spread rule alone.
func judge(rule metricRule, a, b []float64, pairs [][2]float64) (verdict string, wins, n int) {
	better := func(x, y float64) bool { return (rule.lower && x < y) || (!rule.lower && x > y) }
	losses := 0
	for _, p := range pairs {
		switch {
		case better(p[1], p[0]):
			wins++
		case better(p[0], p[1]):
			losses++
		}
	}
	n = len(pairs)
	a1, am, a3 := quartiles(a)
	b1, bm, b3 := quartiles(b)
	spreadA, spreadB := (a3-a1)/math.Abs(am), (b3-b1)/math.Abs(bm)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				allBetter = false
			}
		}
	}
	rel := (bm - am) / math.Abs(am)
	if !rule.lower {
		rel = -rel
	}
	switch {
	case !math.IsNaN(rule.bound) && rel > rule.bound:
		return "worse", wins, n
	case allBetter:
		return "better", wins, n
	case !math.IsNaN(rule.bound) && (spreadA > rule.bound || spreadB > rule.bound):
		return "unresolved", wins, n
	case n > 0 && math.Abs(bm-am) > a3-a1 && 10*wins >= 9*n:
		return "better", wins, n
	case n > 0 && math.Abs(bm-am) > a3-a1 && 10*losses >= 9*n:
		return "worse", wins, n
	}
	return "unchanged", wins, n
}

// pairUp pairs the runs of the two sides that used the same seed; when
// no seed is shared it pairs them in file order.
func pairUp(base, change []record, rule metricRule) [][2]float64 {
	bySeed := map[int64]float64{}
	for _, r := range base {
		if m, ok := r.Metrics[rule.name]; ok && r.Trace == rule.traced {
			bySeed[r.Seed] = m.Value
		}
	}
	var pairs [][2]float64
	for _, r := range change {
		if m, ok := r.Metrics[rule.name]; ok && r.Trace == rule.traced {
			if v, ok := bySeed[r.Seed]; ok {
				pairs = append(pairs, [2]float64{v, m.Value})
				delete(bySeed, r.Seed)
			}
		}
	}
	if len(pairs) > 0 {
		return pairs
	}
	a, b := values(base, rule), values(change, rule)
	for i := 0; i < min(len(a), len(b)); i++ {
		pairs = append(pairs, [2]float64{a[i], b[i]})
	}
	return pairs
}

// sameDigests counts the seeds run on both sides whose output digests
// agree. The digest is a function of the inputs, so a change that keeps
// results bit-identical keeps every shared seed's digest.
func sameDigests(base, change []record) (same, shared int) {
	digest := map[int64]string{}
	for _, r := range base {
		digest[r.Seed] = r.Digest
	}
	seen := map[int64]bool{}
	for _, r := range change {
		d, ok := digest[r.Seed]
		if !ok || seen[r.Seed] {
			continue
		}
		seen[r.Seed] = true
		shared++
		if d == r.Digest {
			same++
		}
	}
	return same, shared
}
