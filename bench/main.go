// Command kgebench is the repository's benchmark of record.
//
//	go run ./bench -seed 1          four workloads, eight end-to-end metrics each
//	go run ./bench -seed 1 -trace   the traced run: per-layer metrics and span files
//	go run ./bench -aa              the untraced benchmark twice; do the two agree?
//
// The driver's form runs one workload in this process and ends with one JSON
// line:
//
//	go run ./bench --workload full_ranking --seed 3 --seconds 12 --trace 0
//
// Without --workload every workload runs in a child process of its own (a
// re-exec of this binary in the driver's form), so heap, GC state and peak
// RSS of one workload never leak into the next. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

const outDir = "bench/out"

func main() {
	fs := flag.NewFlagSet("kgebench", flag.ExitOnError)
	workload := fs.String("workload", "", "run this one workload in-process and end with the driver's JSON line (default: all, one child process each)")
	seed := fs.Int64("seed", 1, "every generated input derives from this")
	seconds := fs.Float64("seconds", 45, "timed window per workload; whole rounds run until it has elapsed")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics and bench/out/<workload>.trace.json")
	aa := fs.Bool("aa", false, "run the untraced benchmark twice and compare every end-to-end metric against its bound")
	_ = fs.Parse(normalizeTrace(os.Args[1:])) // ExitOnError: Parse does not return an error

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "kgebench: "+format+"\n", args...)
	}
	switch {
	case *workload != "":
		os.Exit(runOne(*workload, *seed, *seconds, *trace == 1, logf))
	case *aa:
		os.Exit(runAA(*seed, *seconds, logf))
	default:
		_, ok := runAll(*seed, *seconds, *trace == 1, logf)
		if !ok {
			os.Exit(1)
		}
	}
}

// normalizeTrace lets a bare -trace mean -trace=1, while the driver's
// "--trace 0" and "--trace 1" keep their value.
func normalizeTrace(args []string) []string {
	out := append([]string(nil), args...)
	for i, a := range out {
		if a != "-trace" && a != "--trace" {
			continue
		}
		if i+1 < len(out) && (out[i+1] == "0" || out[i+1] == "1") {
			continue
		}
		out[i] = "-trace=1"
	}
	return out
}

func defs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

func printMetrics(workload string, traced bool, res runResult) {
	for _, d := range defs(traced) {
		fmt.Printf("%-20s %-44s %16.6g %s\n", workload, d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
}

// runOne is the driver's form: one workload, in this process.
func runOne(workload string, seed int64, seconds float64, traced bool, logf func(string, ...any)) int {
	res, err := runWorkload(runConfig{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: traced,
		Scale: benchScale(seed), OutDir: outDir,
		Log: func(format string, args ...any) { logf(workload+": "+format, args...) },
	})
	if err != nil {
		logf("%s: %v", workload, err)
		return 2
	}
	printMetrics(workload, traced, res)
	line, err := json.Marshal(res)
	if err != nil {
		logf("%v", err)
		return 2
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// resultsFile is the layout of bench/out/results.json.
type resultsFile struct {
	Seed        int64                `json:"seed"`
	Seconds     float64              `json:"seconds"`
	Traced      bool                 `json:"traced"`
	Environment map[string]string    `json:"environment"`
	Workloads   map[string]runResult `json:"workloads"`
}

func environment() map[string]string {
	rev := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		rev = strings.TrimSpace(string(out))
	}
	return map[string]string{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"git_rev":    rev,
	}
}

// runAll runs every workload in a child process of its own and writes
// bench/out/results.json (results.trace.json for the traced run).
func runAll(seed int64, seconds float64, traced bool, logf func(string, ...any)) (resultsFile, bool) {
	file := resultsFile{Seed: seed, Seconds: seconds, Traced: traced, Environment: environment(), Workloads: map[string]runResult{}}
	logf("environment %v", file.Environment)
	exe, err := os.Executable()
	if err != nil {
		logf("%v", err)
		return file, false
	}
	ok := true
	for _, name := range workloadNames {
		t := "0"
		if traced {
			t = "1"
		}
		cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", t)
		cmd.Stderr = os.Stderr
		out, runErr := cmd.Output()
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		var res runResult
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			logf("%s: no result line (%v, %v)", name, runErr, err)
			ok = false
			continue
		}
		printMetrics(name, traced, res)
		fmt.Printf("%-20s %-44s %16v\n", name, "correct", res.Correct)
		fmt.Printf("%-20s %-44s %16d of %d\n", name, "failed", res.Failed, res.Attempted)
		file.Workloads[name] = res
		if runErr != nil || !res.Correct || res.Failed > 0 {
			ok = false
		}
	}
	path := filepath.Join(outDir, "results.json")
	if traced {
		path = filepath.Join(outDir, "results.trace.json")
	}
	buf, err := json.MarshalIndent(file, "", "  ")
	if err == nil {
		if err = os.MkdirAll(outDir, 0o755); err == nil {
			err = os.WriteFile(path, buf, 0o644)
		}
	}
	if err != nil {
		logf("writing %s: %v", path, err)
		return file, false
	}
	logf("wrote %s", path)
	return file, ok
}

// worsening is how far b is worse than a, as a share of a.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Higher {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// runAA runs the same code twice back to back. Either run may be the worse
// one, so a pair disagrees when the two differ by more than the bound in
// either direction.
func runAA(seed int64, seconds float64, logf func(string, ...any)) int {
	first, ok1 := runAll(seed, seconds, false, logf)
	second, ok2 := runAll(seed, seconds, false, logf)
	agree := ok1 && ok2
	fmt.Printf("\n%-20s %-16s %14s %14s %9s %7s\n", "workload", "metric", "run 1", "run 2", "diff", "bound")
	for _, name := range workloadNames {
		for _, d := range endToEnd {
			a, b := first.Workloads[name].Metrics[d.Name].Value, second.Workloads[name].Metrics[d.Name].Value
			diff := math.Max(worsening(d, a, b), worsening(d, b, a))
			verdict := ""
			if diff > d.Bound {
				verdict = "  DISAGREE"
				agree = false
			}
			fmt.Printf("%-20s %-16s %14.6g %14.6g %8.2f%% %6.1f%%%s\n", name, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if !agree {
		return 1
	}
	return 0
}
