package service

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"kgeval/internal/obs"
)

// exposedSeries lists the series a /metrics scrape of engine shows — its
// registry plus obs.Default, as the server mounts them — one line per
// series: a sample's name and labels, without its value.
func exposedSeries(t *testing.T, engine *Engine) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.WritePrometheus(&buf, engine.Metrics(), obs.Default); err != nil {
		t.Fatal(err)
	}
	var series []string
	for line := range strings.Lines(buf.String()) {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			series = append(series, line[:strings.LastIndexByte(line, ' ')])
		}
	}
	return series
}

// The metric cardinality cap: no label carries a job id, a model, a strategy
// or anything else that grows with the jobs an engine runs. Eight jobs and
// then 32 more through one engine — distinct ids, all three strategies,
// four models, and failed and cancelled jobs beside the ones that succeed —
// leave the engine registry plus obs.Default with the same series.
func TestMetricSeriesDoNotGrowWithJobs(t *testing.T) {
	checkNoLeaks(t)
	engine, err := NewEngine(EngineConfig{Graph: serviceGraph(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(engine.Close)
	g := engine.Graph()
	names := []string{"ComplEx", "DistMult", "TransE", "RotatE"}
	snaps := map[string][]byte{}
	for _, name := range names {
		snaps[name] = snapshotModel(t, g, name, 8, 1)
	}
	run := func(from, n int) {
		var jobs []*Job
		for k := from; k < from+n; k++ {
			name := names[k%len(names)]
			spec := JobSpec{
				Model:    ModelSpec{Name: name, Dim: 8, Seed: 1, Snapshot: snaps[name]},
				Strategy: []string{"R", "P", "S"}[k%3], MaxQueries: 10, Seed: int64(1 + k%4),
			}
			if k%5 == 3 { // DistMult's name on ComplEx's bytes, the same length: fails at load
				spec.Model = ModelSpec{Name: "DistMult", Dim: 8, Seed: 1, Snapshot: snaps["ComplEx"]}
			}
			j, err := engine.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if k%5 == 4 {
				j.Cancel()
			}
			jobs = append(jobs, j)
		}
		states := map[State]int{}
		ids := map[string]bool{}
		for _, j := range jobs {
			states[waitJob(t, j).State]++
			ids[j.ID] = true
		}
		if states[StateSucceeded] == 0 || states[StateFailed] == 0 || states[StateCanceled] == 0 || len(ids) != n {
			t.Fatalf("jobs %d to %d: terminal states %v over %d distinct ids, want succeeded, failed and canceled over %d",
				from, from+n, states, len(ids), n)
		}
	}
	run(0, 8)
	first := exposedSeries(t, engine)
	run(8, 32)
	second := exposedSeries(t, engine)
	if len(second) != len(first) {
		var added []string
		for _, s := range second {
			if !slices.Contains(first, s) {
				added = append(added, s)
			}
		}
		t.Fatalf("%d series after 8 jobs, %d after 40; new ones:\n%s", len(first), len(second), strings.Join(added, "\n"))
	}
	if len(first) == 0 {
		t.Fatal("no series exposed")
	}
	t.Logf("%d series after 8 jobs and after 40", len(first))
}
