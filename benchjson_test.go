package feedbackflow_test

import (
	"encoding/json"
	"os"
	"testing"
)

// benchRecord is one row of the JSON file TestWriteBenchJSON writes
// (BENCH_PR7.json under make bench-kernel).
type benchRecord struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// TestWriteBenchJSON re-runs the core micro-benchmarks — including the
// prefix-sum kernel sweep and the BenchmarkRun size ladder up to
// N=262144 — and writes their results as machine-readable JSON for
// regression tracking. It is opt-in — set BENCH_JSON to the output
// path, or use the `make bench-kernel` target, which writes the
// versioned BENCH_PR7.json:
//
//	BENCH_JSON=BENCH_PR7.json go test -run TestWriteBenchJSON .
func TestWriteBenchJSON(t *testing.T) {
	path := os.Getenv("BENCH_JSON")
	if path == "" {
		t.Skip("BENCH_JSON not set; skipping benchmark JSON emission")
	}
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"BenchmarkFIFOQueues", BenchmarkFIFOQueues},
		{"BenchmarkFairShareQueues/N=32", func(b *testing.B) { benchFairShareKernel(b, 32) }},
		{"BenchmarkFairShareQueues/N=512", func(b *testing.B) { benchFairShareKernel(b, 512) }},
		{"BenchmarkFairShareQueues/N=4096", func(b *testing.B) { benchFairShareKernel(b, 4096) }},
		{"BenchmarkFairShareQueues/N=65536", func(b *testing.B) { benchFairShareKernel(b, 65536) }},
		{"BenchmarkSystemStep", BenchmarkSystemStep},
		{"BenchmarkStepNoTracer", BenchmarkStepNoTracer},
		{"BenchmarkObserve", BenchmarkObserve},
		{"BenchmarkWorkspaceObserve", BenchmarkWorkspaceObserve},
		{"BenchmarkWorkspaceStep", BenchmarkWorkspaceStep},
		{"BenchmarkRun/N=4", func(b *testing.B) { benchRun(b, 4) }},
		{"BenchmarkRun/N=64", func(b *testing.B) { benchRun(b, 64) }},
		{"BenchmarkRun/N=512", func(b *testing.B) { benchRun(b, 512) }},
		{"BenchmarkRun/N=4096", func(b *testing.B) { benchRun(b, 4096) }},
		{"BenchmarkRun/N=65536", func(b *testing.B) { benchRun(b, 65536) }},
		{"BenchmarkRun/N=262144", func(b *testing.B) { benchRun(b, 262144) }},
		{"BenchmarkReplicateParallel/workers=1", func(b *testing.B) { benchReplicate(b, 1) }},
		{"BenchmarkReplicateParallel/workers=4", func(b *testing.B) { benchReplicate(b, 4) }},
		{"BenchmarkRunToSteadyState", BenchmarkRunToSteadyState},
		{"BenchmarkStabilityAnalysis", BenchmarkStabilityAnalysis},
		{"BenchmarkEventSim", BenchmarkEventSim},
	}
	records := make([]benchRecord, 0, len(benches))
	for _, bm := range benches {
		res := testing.Benchmark(bm.fn)
		if res.N == 0 {
			t.Fatalf("%s did not run", bm.name)
		}
		records = append(records, benchRecord{
			Name:        bm.name,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		})
		t.Logf("%s: %.0f ns/op, %d allocs/op", bm.name,
			float64(res.T.Nanoseconds())/float64(res.N), res.AllocsPerOp())
	}
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
