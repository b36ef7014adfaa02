package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// hostInfo is the provenance block of every result: what the numbers
// were measured on and of which source tree.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Seed       int64  `json:"seed"`
	// CalibrationMS is the median time to sort a fixed 65536-element
	// slice: host speed at the time of the run, which tells a slower or
	// busier host from a regression. No metric is scaled by it.
	CalibrationMS float64 `json:"calibration_ms"`
}

func collectHost(seed int64) hostInfo {
	return hostInfo{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		CPUModel:      cpuModel(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		Commit:        gitCommit(),
		SourceHash:    sourceHash(),
		Seed:          seed,
		CalibrationMS: calibrate(),
	}
}

// calibrate times a fixed CPU-bound reference computation.
func calibrate() float64 {
	rng := rand.New(rand.NewSource(1))
	ref := make([]float64, 1<<16)
	for i := range ref {
		ref[i] = rng.Float64()
	}
	work := make([]float64, len(ref))
	var ts []float64
	for i := 0; i < 9; i++ {
		copy(work, ref)
		t0 := time.Now()
		slices.Sort(work)
		ts = append(ts, ms(time.Since(t0)))
	}
	return median(ts)
}

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

// gitCommit resolves HEAD when the benchmark runs inside a git
// checkout; an exported tree has no commit, and sourceHash identifies
// it instead.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceHash digests every Go source and module file of the tree the
// benchmark was built from, in path order.
func sourceHash() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		h.Write([]byte(p))
		h.Write([]byte{0})
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
