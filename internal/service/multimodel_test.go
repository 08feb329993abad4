package service

import (
	"testing"
)

// A multi-model job evaluates every snapshot over shared candidate pools and
// reports one result per model; the single-model result slot stays empty.
func TestServerMultiModelJob(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1})
	g := engine.Graph()

	spec := JobSpec{
		Models: []ModelSpec{
			{Name: "ComplEx", Dim: 16, Seed: 3, Snapshot: snapshotModel(t, g, "ComplEx", 16, 3)},
			{Name: "DistMult", Dim: 16, Seed: 4, Snapshot: snapshotModel(t, g, "DistMult", 16, 4)},
			{Name: "TransE", Dim: 16, Seed: 5, Snapshot: snapshotModel(t, g, "TransE", 16, 5)},
		},
		Strategy:   "P",
		MaxQueries: 60,
	}
	st := submitJob(t, srv.URL, spec)
	if len(st.Models) != 3 || st.Model != "" {
		t.Fatalf("submitted status models = %v, model = %q", st.Models, st.Model)
	}
	final := waitTerminal(t, srv.URL, st.ID)
	if final.State != StateSucceeded {
		t.Fatalf("multi-model job state = %s (error %q)", final.State, final.Error)
	}
	if final.Result != nil {
		t.Fatal("multi-model job must not populate the single-model result")
	}
	if len(final.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(final.Results))
	}
	for i, want := range []string{"ComplEx", "DistMult", "TransE"} {
		r := final.Results[i]
		if r.Model != want {
			t.Errorf("results[%d].Model = %q, want %q", i, r.Model, want)
		}
		if r.MRR <= 0 || r.MRR > 1 {
			t.Errorf("results[%d] MRR = %v out of (0,1]", i, r.MRR)
		}
		if r.Queries != 2*60 {
			t.Errorf("results[%d] Queries = %d, want 120", i, r.Queries)
		}
	}
	// Shared-pool progress spans the fleet: 3 models × 60 triples.
	if final.Progress.Done != 180 || final.Progress.Total != 180 {
		t.Fatalf("progress = %+v, want 180/180", final.Progress)
	}
}

// The multi-model path must agree with three separate single-model jobs:
// same seed means same pools, so per-model metrics are identical.
func TestMultiModelMatchesSingleModelJobs(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1})
	g := engine.Graph()

	models := []ModelSpec{
		{Name: "ComplEx", Dim: 16, Seed: 3, Snapshot: snapshotModel(t, g, "ComplEx", 16, 3)},
		{Name: "RESCAL", Dim: 16, Seed: 4, Snapshot: snapshotModel(t, g, "RESCAL", 16, 4)},
	}
	multi := submitJob(t, srv.URL, JobSpec{Models: models, Strategy: "R", MaxQueries: 50})
	multiFinal := waitTerminal(t, srv.URL, multi.ID)
	if multiFinal.State != StateSucceeded {
		t.Fatalf("multi job: %s (%s)", multiFinal.State, multiFinal.Error)
	}

	for i, ms := range models {
		ms.Snapshot = snapshotModel(t, g, ms.Name, ms.Dim, ms.Seed)
		single := submitJob(t, srv.URL, JobSpec{Model: ms, Strategy: "R", MaxQueries: 50})
		sf := waitTerminal(t, srv.URL, single.ID)
		if sf.State != StateSucceeded {
			t.Fatalf("single job %s: %s (%s)", ms.Name, sf.State, sf.Error)
		}
		if got, want := multiFinal.Results[i].MRR, sf.Result.MRR; got != want {
			t.Errorf("%s: multi-model MRR %v != single-model MRR %v", ms.Name, got, want)
		}
	}
}

func TestMultiModelValidation(t *testing.T) {
	_, engine := newTestServer(t, EngineConfig{Workers: 1})
	g := engine.Graph()
	good := ModelSpec{Name: "ComplEx", Dim: 16, Seed: 3, Snapshot: snapshotModel(t, g, "ComplEx", 16, 3)}

	// model and models together are ambiguous.
	if _, err := engine.Submit(JobSpec{Model: good, Models: []ModelSpec{good}}); err == nil {
		t.Error("model+models accepted")
	}
	// Every fleet member is validated.
	if _, err := engine.Submit(JobSpec{Models: []ModelSpec{good, {Name: "Nope", Dim: 4, Snapshot: []byte{1}}}}); err == nil {
		t.Error("unknown fleet model accepted")
	}
	if _, err := engine.Submit(JobSpec{Models: []ModelSpec{good, {Name: "DistMult", Dim: 8}}}); err == nil {
		t.Error("fleet model without snapshot accepted")
	}
	// A valid fleet passes.
	if _, err := engine.Submit(JobSpec{Models: []ModelSpec{good}}); err != nil {
		t.Errorf("valid fleet rejected: %v", err)
	}
}

// A corrupt snapshot anywhere in the fleet fails the whole job, and the job
// retains neither snapshot bytes nor its hold on the models regardless.
func TestMultiModelSnapshotErrorAndRelease(t *testing.T) {
	srv, engine := newTestServer(t, EngineConfig{Workers: 1})
	g := engine.Graph()

	spec := JobSpec{
		Models: []ModelSpec{
			{Name: "ComplEx", Dim: 16, Seed: 3, Snapshot: snapshotModel(t, g, "ComplEx", 16, 3)},
			{Name: "DistMult", Dim: 16, Seed: 4, Snapshot: []byte("not a snapshot")},
		},
		Strategy: "P",
	}
	st := submitJob(t, srv.URL, spec)
	final := waitTerminal(t, srv.URL, st.ID)
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("corrupt fleet snapshot: state %s, error %q", final.State, final.Error)
	}
	j, ok := engine.Get(st.ID)
	if !ok {
		t.Fatal("job disappeared")
	}
	j.mu.Lock()
	held := len(j.Spec.Model.Snapshot)
	for _, ms := range j.Spec.Models {
		held += len(ms.Snapshot)
	}
	held += len(j.models)
	j.mu.Unlock()
	if held != 0 {
		t.Fatalf("terminal job still holds snapshot bytes or model references (%d)", held)
	}
	// The good model of the fleet stays registered; the corrupt one does not.
	if ms := engine.Stats().Models; ms.Entries != 1 || ms.Misses != 2 {
		t.Fatalf("registry after a half-corrupt fleet: %+v, want 1 entry from 2 parses", ms)
	}

}
