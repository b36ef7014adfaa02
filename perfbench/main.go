// Command perfbench is the repository's benchmark: it drives the
// solver and ffcd from outside, through their public Go APIs, on four
// seeded workloads, checks that every output is correct, and prints one
// JSON result line.
//
//	perfbench --workload bigpop|mesh|fluid|serve --seed N --seconds S --trace 0|1 [--out FILE]
//	perfbench compare [--bench BENCHMARK.json] BASE.jsonl CHANGE.jsonl
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 a separate traced run yields the per-layer metrics. The
// last line of standard output is always the result object; the lines
// before it name every metric with its unit and sample count, the host,
// the workload's traffic descriptors and the final-rate digest. --out
// appends the full record (host, traffic, digest, metrics) as one JSON
// line, the input of compare. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"sort"
	"time"
)

// metric is one named measurement as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is the full provenance-carrying form appended to --out.
type record struct {
	Schema    string            `json:"schema"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Host      hostInfo          `json:"host"`
	Traffic   map[string]any    `json:"traffic"`
	Digest    string            `json:"digest"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Gates     []string          `json:"gate_failures,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Samples   map[string]int    `json:"samples"`
}

const recordSchema = "feedbackflow/perfbench/v1"

// bench is the state of one run: its arguments, the metrics measured
// so far, and the correctness ledger.
type bench struct {
	spec     *benchSpec
	workload string
	seed     int64
	seconds  float64
	trace    bool

	metrics   map[string]metric
	samples   map[string]int // sample count behind each metric, where it is a statistic
	attempted int64
	failed    int64
	gates     []string // correctness-gate failures, one line each
	traffic   map[string]any
	digest    string
	spans     *spanLog // non-nil on traced runs
}

// set records a metric, in the unit BENCHMARK.json gives it; n is the
// number of samples it summarises (0 when it is a single measurement or
// a ratio of totals).
func (b *bench) set(name string, v float64, n int) {
	unit, ok := b.spec.units()[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: metric %s is not defined in BENCHMARK.json", name))
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
	if n > 0 {
		b.samples[name] = n
	}
}

// gate records a correctness failure. Every failure counts against the
// run's operations and makes the exit code non-zero.
func (b *bench) gate(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.gates) < 20 {
		b.gates = append(b.gates, msg)
	}
	b.failed++
}

// op counts one attempted operation, failed when err is non-nil.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.gate("%v", err)
	}
}

// phase returns the share f of the run's measuring time.
func (b *bench) phase(f float64) time.Duration {
	return time.Duration(f * b.seconds * float64(time.Second))
}

var workloads = map[string]func(*bench) error{
	"bigpop": runBigpop,
	"mesh":   runMesh,
	"fluid":  runFluid,
	"serve":  runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "bigpop, mesh, fluid or serve")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measuring time of the run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", "", "append the full result record to this JSONL file")
	spansPath := fs.String("spans", "", "traced runs: write the recorded spans here (default .bench_build/spans-<workload>-<seed>.jsonl)")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark definition naming the metrics to report")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload {bigpop,mesh,fluid,serve}, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	b := &bench{
		spec:     spec,
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		metrics:  map[string]metric{},
		samples:  map[string]int{},
		traffic:  map[string]any{},
	}
	if b.trace {
		b.spans = newSpanLog()
	}
	host := collectHost(b.seed)
	if err := run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
		return 2
	}
	if b.trace {
		path := *spansPath
		if path == "" {
			path = fmt.Sprintf(".bench_build/spans-%s-%d.jsonl", b.workload, b.seed)
		}
		if err := b.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: write spans: %v\n", err)
			return 2
		}
		fmt.Printf("spans %s (%d kept of %d recorded)\n", path, len(b.spans.kept), b.spans.recorded)
	}

	want := spec.names(b.trace)
	for _, name := range want {
		if _, ok := b.metrics[name]; !ok {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s was not measured\n", b.workload, name)
			return 2
		}
	}
	for name := range b.metrics {
		if !slices.Contains(want, name) {
			delete(b.metrics, name)
		}
	}
	if b.attempted == 0 {
		b.attempted = 1
		b.gate("no operation attempted")
	}
	correct := len(b.gates) == 0

	printHuman(b, host)
	if *out != "" {
		rec := record{
			Schema: recordSchema, Workload: b.workload, Seed: b.seed, Trace: b.trace, Seconds: b.seconds,
			Host: host, Traffic: b.traffic, Digest: b.digest, Correct: correct,
			Attempted: b.attempted, Failed: b.failed, Gates: b.gates, Metrics: b.metrics, Samples: b.samples,
		}
		if err := appendJSONL(*out, rec); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	line, err := json.Marshal(result{Correct: correct, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

// printHuman writes the provenance block and every metric by name,
// unit and sample count.
func printHuman(b *bench, host hostInfo) {
	hj, _ := json.Marshal(host)
	tj, _ := json.Marshal(b.traffic)
	fmt.Printf("host %s\n", hj)
	fmt.Printf("workload %s seed %d seconds %g trace %v\n", b.workload, b.seed, b.seconds, b.trace)
	fmt.Printf("traffic %s\n", tj)
	fmt.Printf("digest %s\n", b.digest)
	names := make([]string, 0, len(b.metrics))
	for name := range b.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := b.metrics[name]
		n := ""
		if c := b.samples[name]; c > 0 {
			n = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("metric %-32s %14.6g %s%s\n", name, m.Value, m.Unit, n)
	}
	fmt.Printf("error_frac %.6g (%d failed of %d attempted)\n", float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	for _, g := range b.gates {
		fmt.Printf("gate FAIL %s\n", g)
	}
}

func appendJSONL(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open %s: %w", path, err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// zeroLayers reports 0 for every per-layer metric the workload has not
// set: the workload never calls that layer.
func (b *bench) zeroLayers() {
	for _, m := range b.spec.PerLayer {
		if _, ok := b.metrics[m.Name]; !ok {
			b.set(m.Name, 0, 0)
		}
	}
}
