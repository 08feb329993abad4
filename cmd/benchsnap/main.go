// Command benchsnap runs the repo's Go benchmarks and writes a
// schema-stable JSON snapshot (BENCH_<pr>.json) so performance can be
// tracked across PRs from committed artifacts instead of ad-hoc terminal
// scrollback.
//
// It shells out to `go test -bench`, parses the standard benchmark output
// lines, and records ns/op, B/op and allocs/op per benchmark together with
// enough environment (go version, GOOS/GOARCH, GOMAXPROCS, git revision)
// to make snapshots comparable.
//
// Usage:
//
//	benchsnap -pr 6 -o BENCH_0006.json                  # default micro-bench set
//	benchsnap -bench 'BenchmarkEvaluateBatch' -o b.json # custom pattern
//	benchsnap -quick -o /tmp/b.json                     # 1-iteration smoke (CI)
//	benchsnap -check BENCH_0006.json                    # validate an existing snapshot
//	benchsnap -check BENCH_0007.json -prev BENCH_0006.json  # + ns/op regression guard
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// benchSchema versions the snapshot layout; -check refuses anything else.
const benchSchema = "kgeval-bench/v1"

// defaultPattern covers the micro-benchmarks that track the hot paths
// without pulling in the multi-minute paper-table reproductions.
const defaultPattern = "^(BenchmarkFullEvaluation|BenchmarkEstimateRandom|BenchmarkEstimateStatic|" +
	"BenchmarkEstimateProbabilistic|BenchmarkEvaluateBatch|BenchmarkEvaluateBatchPrecision|" +
	"BenchmarkEvaluateBatchTraced|" +
	"BenchmarkEvaluatePerQuery|BenchmarkEstimateMany|BenchmarkLWDFit|BenchmarkBuildStatic|" +
	"BenchmarkKPScore)$"

// Snapshot is the committed artifact. Field names are part of the schema:
// additions are fine, renames/removals require a schema bump.
type Snapshot struct {
	Schema     string      `json:"schema"`
	PR         int         `json:"pr"`
	GitRev     string      `json:"git_rev"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	BenchTime  string      `json:"benchtime"`
	CreatedAt  string      `json:"created_at"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one parsed `BenchmarkX-N  iters  ns/op ...` line. Model and
// Dim are extracted from sub-benchmark names like
// BenchmarkEvaluateBatch/DistMult/dim256 when present.
type Benchmark struct {
	Name        string  `json:"name"`
	Model       string  `json:"model,omitempty"`
	Dim         int     `json:"dim,omitempty"`
	N           int64   `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

func main() {
	var (
		out       = flag.String("o", "", "output file (default stdout)")
		bench     = flag.String("bench", defaultPattern, "go test -bench regexp")
		benchtime = flag.String("benchtime", "1s", "go test -benchtime value")
		quick     = flag.Bool("quick", false, "single-iteration smoke run (-benchtime 1x); for CI schema checks")
		check     = flag.String("check", "", "validate an existing snapshot file and exit")
		prev      = flag.String("prev", "", "with -check: previous snapshot to guard ns/op regressions against")
		tolerance = flag.Float64("tolerance", 0.30, "with -prev: allowed fractional ns/op growth before failing")
		pr        = flag.Int("pr", 0, "PR number recorded in the snapshot")
	)
	flag.Parse()

	if *prev != "" && *check == "" {
		fmt.Fprintln(os.Stderr, "benchsnap: -prev requires -check")
		os.Exit(2)
	}
	if *check != "" {
		if err := checkSnapshot(*check); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: %s: %v\n", *check, err)
			os.Exit(1)
		}
		if *prev != "" {
			// Committed snapshots gate timing contracts; the bare -check
			// used on -quick smoke snapshots validates schema only, since
			// single-iteration timings are too noisy for a 5% budget.
			if err := checkTracedOverhead(*check); err != nil {
				fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
				os.Exit(1)
			}
			if err := checkRegressions(*check, *prev, *tolerance); err != nil {
				fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
				os.Exit(1)
			}
		}
		fmt.Printf("%s: ok\n", *check)
		return
	}

	bt := *benchtime
	if *quick {
		bt = "1x"
	}
	snap, err := run(*bench, bt, *pr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(snap.Benchmarks))
}

// run executes the benchmarks and assembles the snapshot.
func run(pattern, benchtime string, pr int) (*Snapshot, error) {
	// -timeout covers the whole binary run: the per-query baselines of the
	// deep models are minutes-per-op by design, which overruns go test's
	// default 10m on slow machines.
	args := []string{"test", "-run", "^$", "-bench", pattern, "-benchtime", benchtime, "-benchmem", "-count", "1", "-timeout", "60m", "."}
	fmt.Fprintf(os.Stderr, "benchsnap: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go test -bench: %w", err)
	}
	benches, err := parseBenchOutput(buf.String())
	if err != nil {
		return nil, err
	}
	if len(benches) == 0 {
		return nil, fmt.Errorf("no benchmarks matched %q", pattern)
	}
	return &Snapshot{
		Schema:     benchSchema,
		PR:         pr,
		GitRev:     gitRev(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		BenchTime:  benchtime,
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		Benchmarks: benches,
	}, nil
}

// benchLine matches the standard testing output, e.g.
//
//	BenchmarkEvaluateBatch/DistMult/dim256-8  120  9876543 ns/op  4096 B/op  12 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op)?(?:\s+(\d+) allocs/op)?`)

// subName extracts model/dim from sub-benchmark path segments like
// BenchmarkEvaluateBatch/DistMult/dim256.
var dimSeg = regexp.MustCompile(`^dim(\d+)$`)

func parseBenchOutput(out string) ([]Benchmark, error) {
	var benches []Benchmark
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		b := Benchmark{Name: m[1]}
		var err error
		if b.N, err = strconv.ParseInt(m[2], 10, 64); err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		if b.NsPerOp, err = strconv.ParseFloat(m[3], 64); err != nil {
			return nil, fmt.Errorf("parsing %q: %w", line, err)
		}
		if m[4] != "" {
			b.BytesPerOp, _ = strconv.ParseInt(m[4], 10, 64)
		}
		if m[5] != "" {
			b.AllocsPerOp, _ = strconv.ParseInt(m[5], 10, 64)
		}
		for _, seg := range strings.Split(b.Name, "/")[1:] {
			if dm := dimSeg.FindStringSubmatch(seg); dm != nil {
				b.Dim, _ = strconv.Atoi(dm[1])
			} else if b.Model == "" {
				b.Model = seg
			}
		}
		benches = append(benches, b)
	}
	return benches, nil
}

// gitRev reports the short HEAD revision, or "unknown" outside a checkout.
func gitRev() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// checkSnapshot validates that a snapshot file parses and carries the
// current schema with sane benchmark entries.
func checkSnapshot(path string) error {
	_, err := loadSnapshot(path)
	return err
}

func loadSnapshot(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if s.Schema != benchSchema {
		return nil, fmt.Errorf("schema %q, want %q", s.Schema, benchSchema)
	}
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmarks recorded")
	}
	for i, b := range s.Benchmarks {
		if b.Name == "" {
			return nil, fmt.Errorf("benchmark %d has no name", i)
		}
		if b.NsPerOp <= 0 {
			return nil, fmt.Errorf("benchmark %s: ns_per_op = %v, want > 0", b.Name, b.NsPerOp)
		}
	}
	return &s, nil
}

// tracedOverhead is the allowed fractional ns/op overhead of the traced
// batch lane (BenchmarkEvaluateBatchTraced) over its untraced twin in the
// same snapshot — the contract that keeps tracing on by default. The gate
// is on the geometric mean across the model sub-benchmarks: single runs on
// a shared/single-core machine scatter individual pairs by ±10% or more in
// both directions, which is timer noise, while a systematic tracing cost
// shifts the whole distribution and survives averaging.
const tracedOverhead = 0.05

// checkTracedOverhead compares each BenchmarkEvaluateBatchTraced sub-bench
// against the matching BenchmarkEvaluateBatch one and fails if the
// geometric-mean overhead exceeds tracedOverhead. Snapshots predating the
// traced lane (no such benchmarks) pass silently.
func checkTracedOverhead(path string) error {
	s, err := loadSnapshot(path)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	base := make(map[string]float64)
	for _, b := range s.Benchmarks {
		if rest, ok := strings.CutPrefix(b.Name, "BenchmarkEvaluateBatch/"); ok {
			base[rest] = b.NsPerOp
		}
	}
	var logSum float64
	compared := 0
	for _, b := range s.Benchmarks {
		rest, ok := strings.CutPrefix(b.Name, "BenchmarkEvaluateBatchTraced/")
		if !ok {
			continue
		}
		was, ok := base[rest]
		if !ok {
			continue
		}
		compared++
		logSum += math.Log(b.NsPerOp / was)
		fmt.Printf("  traced/%s: %.0f vs %.0f ns/op (%+.1f%%)\n",
			rest, b.NsPerOp, was, 100*(b.NsPerOp/was-1))
	}
	if compared == 0 {
		return nil
	}
	mean := math.Exp(logSum/float64(compared)) - 1
	fmt.Printf("%s: tracing overhead %+.1f%% geomean over %d benchmarks (limit %+.0f%%)\n",
		path, 100*mean, compared, 100*tracedOverhead)
	if mean > tracedOverhead {
		return fmt.Errorf("tracing overhead %+.1f%% geomean exceeds %.0f%%", 100*mean, 100*tracedOverhead)
	}
	return nil
}

// guardPrefix limits the regression guard to the batch-lane benchmarks: they
// are the PR-over-PR perf contract, while per-query fallbacks and fit micro-
// benches exist for reference and are too machine-noise-prone to gate on.
const guardPrefix = "BenchmarkEvaluateBatch"

// checkRegressions compares the overlapping guarded benchmarks of two
// snapshots and fails if any got slower than prev by more than tolerance
// (fractional, e.g. 0.30 = +30% ns/op). It is regression-only: improvements
// and benchmarks present in only one snapshot pass silently, so the guard
// never blocks adding or retiring benchmarks.
func checkRegressions(curPath, prevPath string, tolerance float64) error {
	cur, err := loadSnapshot(curPath)
	if err != nil {
		return fmt.Errorf("%s: %w", curPath, err)
	}
	old, err := loadSnapshot(prevPath)
	if err != nil {
		return fmt.Errorf("%s: %w", prevPath, err)
	}
	prevNs := make(map[string]float64, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		if strings.HasPrefix(b.Name, guardPrefix) {
			prevNs[b.Name] = b.NsPerOp
		}
	}
	var regressed []string
	compared := 0
	for _, b := range cur.Benchmarks {
		was, ok := prevNs[b.Name]
		if !ok || !strings.HasPrefix(b.Name, guardPrefix) {
			continue
		}
		compared++
		if b.NsPerOp > was*(1+tolerance) {
			regressed = append(regressed,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.0f%%, limit %+.0f%%)",
					b.Name, was, b.NsPerOp, 100*(b.NsPerOp/was-1), 100*tolerance))
		}
	}
	fmt.Printf("%s vs %s: %d benchmarks compared, %d regressed\n",
		curPath, prevPath, compared, len(regressed))
	if len(regressed) > 0 {
		return fmt.Errorf("ns/op regressions vs %s:\n  %s", prevPath, strings.Join(regressed, "\n  "))
	}
	return nil
}
