package service

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kgeval/internal/core"
	"kgeval/internal/eval"
	"kgeval/internal/faults"
	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/kgc/store"
	"kgeval/internal/obs/trace"
	"kgeval/internal/recommender"
)

// waitJob blocks until j is terminal and returns its final Status.
func waitJob(t *testing.T, j *Job) Status {
	t.Helper()
	select {
	case <-jobDone(j):
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in %s", j.ID, j.State())
	}
	return j.Status()
}

// libraryResult is what a job must return: Framework.Estimate, fitted the
// way the paper fixes the protocol (L-WD, n_s = max(1, |E|/10), seed 1), over
// a model this test loads privately from the same bytes. A spec's n_s and
// seed left 0 are those constants too.
func libraryResult(t *testing.T, e *Engine, name string, dim int, seed int64, snap []byte, spec JobSpec) eval.Result {
	t.Helper()
	g := e.Graph()
	m, err := kgc.New(name, g, dim, seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := kgc.Load(bytes.NewReader(snap), m); err != nil {
		t.Fatal(err)
	}
	ns := spec.NumSamples
	if ns == 0 {
		ns = max(1, g.NumEntities/10)
	}
	fw := core.New(recommender.NewLWD(), ns, 1)
	if err := fw.Fit(g); err != nil {
		t.Fatal(err)
	}
	strategy, err := core.ParseStrategy(spec.Strategy)
	if err != nil {
		t.Fatal(err)
	}
	prec, err := store.ParsePrecision(spec.Precision)
	if err != nil {
		t.Fatal(err)
	}
	seedOpt := spec.Seed
	if seedOpt == 0 {
		seedOpt = 1
	}
	return fw.Estimate(m, g, g.Test, strategy, eval.Options{
		Filter:     kg.NewFilterIndex(g.Train, g.Valid, g.Test),
		MaxQueries: spec.MaxQueries, Seed: seedOpt, Precision: prec,
	})
}

func libraryMRR(t *testing.T, e *Engine, name string, dim int, seed int64, snap []byte, spec JobSpec) float64 {
	t.Helper()
	return libraryResult(t, e, name, dim, seed, snap, spec).MRR
}

// A job that leaves num_samples and seed at 0 gets the paper's protocol:
// n_s = max(1, |E|/10) and seed 1, for sampling and for the fit.
func TestJobDefaultsAreThePapersProtocol(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := snapshotModel(t, g, "DistMult", 8, 6)
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, Strategy: "P", MaxQueries: 40}
	j, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateSucceeded {
		t.Fatalf("job: %s (%s)", st.State, st.Error)
	}
	if want := max(1, g.NumEntities/10); st.NumSamples != want {
		t.Fatalf("num_samples = %d, want %d", st.NumSamples, want)
	}
	want := resultStatus(libraryResult(t, e, "DistMult", 8, 6, snap, spec))
	got := *st.Result
	got.ElapsedMS, want.ElapsedMS = 0, 0
	if got != want {
		t.Fatalf("job with n_s and seed left 0 = %+v, library at max(1,|E|/10) and seed 1 = %+v", got, want)
	}
}

// A num_samples above |E| is |E|: every sampler takes all it can before it
// reads the rng, so the pools and the result are those of n_s = |E|. The
// status says so, and the two jobs share one Framework.
func TestNumSamplesAboveEntitiesIsAllEntities(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := snapshotModel(t, g, "DistMult", 8, 6)
	var results []ResultStatus
	for i, ns := range []int{g.NumEntities, 1 << 60} {
		j, err := e.Submit(JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, MaxQueries: 40, NumSamples: ns})
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j)
		switch {
		case st.State != StateSucceeded:
			t.Fatalf("num_samples %d: %s (%s)", ns, st.State, st.Error)
		case st.NumSamples != g.NumEntities:
			t.Fatalf("num_samples %d echoed as %d, want |E| = %d", ns, st.NumSamples, g.NumEntities)
		case i > 0 && !st.CacheHit:
			t.Fatalf("num_samples %d fitted a Framework of its own", ns)
		}
		st.Result.ElapsedMS = 0
		results = append(results, *st.Result)
	}
	if results[0] != results[1] {
		t.Fatalf("num_samples 1<<60 = %+v, num_samples |E| = %+v", results[1], results[0])
	}
}

// "PIE-Sim" is another name for "PIE", not another recommender: the second
// spelling reuses the first one's Framework, and both jobs report the name
// the recommender gives itself.
func TestRecommenderAliasSharesTheFramework(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := snapshotModel(t, g, "DistMult", 8, 6)
	for i, name := range []string{"PIE", "PIE-Sim"} {
		j, err := e.Submit(JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snap}, MaxQueries: 40, Recommender: name})
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j)
		switch {
		case st.State != StateSucceeded:
			t.Fatalf("recommender %q: %s (%s)", name, st.State, st.Error)
		case st.Recommender != "PIE":
			t.Fatalf("recommender %q reported as %q, want \"PIE\"", name, st.Recommender)
		case i > 0 && !st.CacheHit:
			t.Fatalf("recommender %q fitted a Framework of its own", name)
		}
	}
	if cs := e.Stats().Cache; cs.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss", cs)
	}
}

// N concurrent submissions of one digest cost exactly one kgc.Load, however
// the workers interleave: one miss, every other load a hit or a join.
func TestRegistryConcurrentSubmissionsLoadOnce(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := snapshotModel(t, g, "ComplEx", 16, 3)
	spec := JobSpec{Model: ModelSpec{Name: "ComplEx", Dim: 16, Seed: 3, Snapshot: snap}, Strategy: "R", MaxQueries: 20}

	const n = 12
	jobs := make([]*Job, n)
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := e.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	var mrr float64
	for i, j := range jobs {
		st := waitJob(t, j)
		if st.State != StateSucceeded {
			t.Fatalf("job %d: %s (%s)", i, st.State, st.Error)
		}
		if st.ModelID != modelDigest(snap) {
			t.Fatalf("job %d model_id = %q, want the snapshot's digest", i, st.ModelID)
		}
		if i == 0 {
			mrr = st.Result.MRR
		} else if st.Result.MRR != mrr {
			t.Fatalf("job %d MRR %v differs from job 0's %v over the same model", i, st.Result.MRR, mrr)
		}
	}
	ms := e.Stats().Models
	if ms.Misses != 1 || ms.Hits != n-1 {
		t.Fatalf("registry traffic = %+v, want 1 miss and %d hits", ms, n-1)
	}
	if ms.Entries != 1 || ms.Bytes != int64(len(snap)) {
		t.Fatalf("registry occupancy = %+v, want one entry of %d bytes", ms, len(snap))
	}
}

// Two jobs sharing one registered model, running at once, return what two
// privately loaded models return — at every precision, to the last bit.
func TestRegistrySharedModelMatchesPrivateLoads(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 2, EvalWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, name := range []string{"ComplEx", "TransE", "ConvE"} {
		snap := snapshotModel(t, g, name, 16, 5)
		for _, prec := range []string{"float64", "float32", "int8"} {
			specs := []JobSpec{
				{Strategy: "P", MaxQueries: 60, Seed: 2, Precision: prec},
				{Strategy: "S", MaxQueries: 40, Seed: 3, Precision: prec},
			}
			jobs := make([]*Job, len(specs))
			for i := range specs {
				specs[i].Model = ModelSpec{Name: name, Dim: 16, Seed: 5, Snapshot: snap}
				if jobs[i], err = e.Submit(specs[i]); err != nil {
					t.Fatal(err)
				}
			}
			for i, j := range jobs {
				st := waitJob(t, j)
				if st.State != StateSucceeded {
					t.Fatalf("%s/%s job %d: %s (%s)", name, prec, i, st.State, st.Error)
				}
				if want := libraryMRR(t, e, name, 16, 5, snap, specs[i]); st.Result.MRR != want {
					t.Errorf("%s/%s job %d: shared-model MRR %v, private-model MRR %v", name, prec, i, st.Result.MRR, want)
				}
			}
		}
	}
	if ms := e.Stats().Models; ms.Misses != 3 {
		t.Fatalf("registry parsed %d models for 3 distinct snapshots (%+v)", ms.Misses, ms)
	}
}

// The byte bound evicts least recently used first, and an evicted id is
// unknown to the next job that names it.
func TestRegistryByteBoundEvictionOrder(t *testing.T) {
	g := serviceGraph(t)
	snaps := [][]byte{
		snapshotModel(t, g, "DistMult", 8, 1),
		snapshotModel(t, g, "DistMult", 8, 2),
		snapshotModel(t, g, "DistMult", 8, 3),
	}
	size := int64(len(snaps[0]))
	setVar(t, &modelCacheBytes, 2*size+size/2)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ids := make([]string, len(snaps))
	put := func(i int) {
		t.Helper()
		id, n, err := e.PutModel(ModelSpec{Name: "DistMult", Dim: 8, Seed: int64(i + 1)}, bytes.NewReader(snaps[i]), size)
		if err != nil || n != size || id != modelDigest(snaps[i]) {
			t.Fatalf("PutModel(%d) = %q, %d, %v", i, id, n, err)
		}
		ids[i] = id
	}
	byID := func(i int) (*Job, error) {
		return e.Submit(JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: int64(i + 1), ModelID: ids[i]}, Strategy: "R", MaxQueries: 10})
	}
	put(0)
	put(1)
	// Using 0 makes 1 the least recently used.
	j, err := byID(0)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateSucceeded || st.ModelCacheHit {
		t.Fatalf("first job over an upload: state %s, model_cache_hit %v (want a parse)", st.State, st.ModelCacheHit)
	}
	put(2) // over the bound: evicts 1
	if ms := e.Stats().Models; ms.Evictions != 1 || ms.Entries != 2 || ms.Bytes != 2*size {
		t.Fatalf("after the third upload: %+v, want 1 eviction, 2 entries, %d bytes", ms, 2*size)
	}
	if _, err := byID(1); !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("job naming the evicted id: err = %v, want ErrUnknownModel", err)
	}
	for _, i := range []int{0, 2} {
		j, err := byID(i)
		if err != nil {
			t.Fatalf("job naming resident id %d: %v", i, err)
		}
		if st := waitJob(t, j); st.State != StateSucceeded {
			t.Fatalf("job over id %d: %s (%s)", i, st.State, st.Error)
		}
	}
	// A loaded model takes its upload's place rather than joining it.
	if ms := e.Stats().Models; ms.Entries != 2 {
		t.Fatalf("registry holds %d entries for 2 models", ms.Entries)
	}
}

// A job keeps its model whatever the registry evicts meanwhile: even with a
// cache too small to hold anything, queued and running jobs succeed with the
// library's numbers.
func TestRegistryEvictWhileReferenced(t *testing.T) {
	g := serviceGraph(t)
	setVar(t, &modelCacheBytes, 1)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Hold the worker so both jobs are queued — referenced, evicted, not yet
	// loaded — when it starts.
	armFault(t, faults.SiteWorker, faults.Plan{Action: faults.Stall, Stall: 100 * time.Millisecond, Limit: 1})
	var jobs []*Job
	var specs []JobSpec
	var snaps [][]byte
	for i, name := range []string{"ComplEx", "DistMult"} {
		snap := snapshotModel(t, g, name, 16, int64(i+1))
		spec := JobSpec{Model: ModelSpec{Name: name, Dim: 16, Seed: int64(i + 1), Snapshot: snap}, Strategy: "P", MaxQueries: 40}
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs, specs, snaps = append(jobs, j), append(specs, spec), append(snaps, snap)
	}
	if ms := e.Stats().Models; ms.Entries != 0 || ms.Evictions != 2 {
		t.Fatalf("1-byte registry after two submissions: %+v, want nothing resident, 2 evictions", ms)
	}
	for i, j := range jobs {
		st := waitJob(t, j)
		if st.State != StateSucceeded {
			t.Fatalf("job %d: %s (%s)", i, st.State, st.Error)
		}
		ms := specs[i].Model
		if want := libraryMRR(t, e, ms.Name, ms.Dim, ms.Seed, snaps[i], specs[i]); st.Result.MRR != want {
			t.Errorf("job %d over an evicted model: MRR %v, library %v", i, st.Result.MRR, want)
		}
	}
	// Nothing resident, so the id alone is not enough afterwards.
	_, err = e.Submit(JobSpec{Model: ModelSpec{Name: "ComplEx", Dim: 16, Seed: 1, ModelID: modelDigest(snaps[0])}})
	if !errors.Is(err, ErrUnknownModel) {
		t.Fatalf("job naming an evicted id: err = %v, want ErrUnknownModel", err)
	}
}

// A snapshot that does not load fails every job that names it, is not kept,
// and is tried again by the next submission.
func TestRegistryFailedLoadFailsJoinersAndRetries(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	good := snapshotModel(t, g, "DistMult", 8, 6)
	bad := append([]byte(nil), good[:len(good)/2]...) // truncated
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: bad}, Strategy: "R", MaxQueries: 10}

	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for i, j := range jobs {
		if st := waitJob(t, j); st.State != StateFailed || !strings.Contains(st.Error, "loading DistMult snapshot") {
			t.Fatalf("job %d over a truncated snapshot: %s (%q)", i, st.State, st.Error)
		}
		j.mu.Lock()
		held := len(j.models)
		j.mu.Unlock()
		if held != 0 {
			t.Fatalf("terminal job %d still holds %d model references", i, held)
		}
	}
	before := e.Stats().Models
	if before.Entries != 0 {
		t.Fatalf("failed load left %d entries resident", before.Entries)
	}
	// Jobs submitted while the failed slot was still indexed share its one
	// parse; the slot is gone now, so this one parses again.
	j, err := e.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateFailed {
		t.Fatalf("resubmitted truncated snapshot: %s", st.State)
	}
	if after := e.Stats().Models; after.Misses != before.Misses+1 {
		t.Fatalf("resubmission did not retry the load: misses %d → %d", before.Misses, after.Misses)
	}
	// And the bytes were the problem, not the slot: the whole snapshot works.
	spec.Model.Snapshot = good
	if j, err = e.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateSucceeded {
		t.Fatalf("good snapshot after a bad one: %s (%s)", st.State, st.Error)
	}
}

// Idle models never turn a job away: with a memory budget that fits one job
// and a half, any number of distinct models evaluated one after another are
// all admitted, the registry giving up the coldest to make room.
func TestRegistryBudgetEvictsIdleModels(t *testing.T) {
	g := serviceGraph(t)
	one := int64(len(snapshotModel(t, g, "DistMult", 16, 1))) // a float64 job is its model's bytes
	budget := one + one/2
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if got := e.Stats().Models.CapBytes; got != budget {
		t.Fatalf("registry capacity %d with a %d-byte budget: the registry counts against it", got, budget)
	}
	for seed := int64(1); seed <= 6; seed++ {
		snap := snapshotModel(t, g, "DistMult", 16, seed)
		spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 16, Seed: seed, Snapshot: snap}, Strategy: "R", MaxQueries: 10, Precision: "float64"}
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatalf("model %d of 6, each fitting the budget alone: %v (registry %+v)", seed, err, e.Stats().Models)
		}
		if st := waitJob(t, j); st.State != StateSucceeded {
			t.Fatalf("model %d: %s (%s)", seed, st.State, st.Error)
		}
		// Room was made for the whole job before its model moved in: half a
		// model's room left holds no other model.
		if ms := e.Stats().Models; ms.Entries != 1 || ms.Bytes != int64(len(snap)) {
			t.Fatalf("after model %d the registry holds %d models in %d bytes under a %d budget, want this one alone",
				seed, ms.Entries, ms.Bytes, budget)
		}
		// The model just evaluated is the one worth keeping.
		if _, held := e.models.lru.Lookup(modelKey{ID: modelDigest(snap), Name: "DistMult", Dim: 16, Seed: seed}); !held {
			t.Fatalf("model %d was evicted to make room for itself", seed)
		}
	}
	if ms := e.Stats().Models; ms.Evictions == 0 || ms.Misses != 6 {
		t.Fatalf("six models through a 1.5-job budget: %+v, want evictions and 6 parses", ms)
	}
	// A job that does not fit on its own is still refused, whatever is resident.
	big := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 64, Seed: 1, Snapshot: snapshotModel(t, g, "DistMult", 64, 1)}, Precision: "float64"}
	var memErr *MemoryBudgetError
	if _, err := e.Submit(big); !errors.As(err, &memErr) {
		t.Fatalf("job over the budget on its own: err = %v, want *MemoryBudgetError", err)
	}
}

// A fleet that names one model twice is charged for it once, snapshot and
// reduced-precision store alike: both entries are one registry slot and one
// loaded model. The budget fits the model and one and a half float32 stores,
// not two of either, and the fleet is admitted inline at float64 and float32
// and, with the model resident, by model_id.
func TestRegistryBudgetChargesRepeatedModelOnce(t *testing.T) {
	g := serviceGraph(t)
	const dim = 16
	snap := snapshotModel(t, g, "DistMult", dim, 1)
	store32 := int64(g.NumEntities) * dim * 4
	budget := int64(len(snap)) + store32*3/2
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1, MemoryBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	inline := ModelSpec{Name: "DistMult", Dim: dim, Seed: 1, Snapshot: snap}
	byID := ModelSpec{Name: "DistMult", Dim: dim, Seed: 1, ModelID: modelDigest(snap)}
	for _, tc := range []struct {
		what string
		m    ModelSpec
		prec string
	}{{"inline", inline, "float64"}, {"inline", inline, "float32"}, {"by model_id", byID, "float64"}} {
		spec := JobSpec{Models: []ModelSpec{tc.m, tc.m}, Strategy: "R", MaxQueries: 10, Precision: tc.prec}
		j, err := e.Submit(spec)
		if err != nil {
			t.Fatalf("fleet naming one model twice, %s at %s, under a %d-byte budget: %v", tc.what, tc.prec, budget, err)
		}
		if st := waitJob(t, j); st.State != StateSucceeded {
			t.Fatalf("fleet %s at %s: %s (%s)", tc.what, tc.prec, st.State, st.Error)
		}
	}
}

// The refusal states its figures in bytes: a budget under a MiB is not "0 MiB".
func TestMemoryBudgetErrorStatesBytes(t *testing.T) {
	err := &MemoryBudgetError{EstimatedBytes: 300_000, BudgetBytes: 200_000}
	if msg := err.Error(); !strings.Contains(msg, "300000 bytes") || !strings.Contains(msg, "200000-byte") {
		t.Errorf("MemoryBudgetError says %q, want both figures in bytes", msg)
	}
}

// An upload is filed under its constructor arguments, so a job naming the id
// with other arguments is told the model is unknown at submission — and
// leaves the upload as it was for the jobs that name it properly.
func TestRegistryWrongArgsLeaveUploadIntact(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := snapshotModel(t, g, "DistMult", 8, 6)
	right := ModelSpec{Name: "DistMult", Dim: 8, Seed: 6}
	id, _, err := e.PutModel(right, bytes.NewReader(snap), int64(len(snap)))
	if err != nil {
		t.Fatal(err)
	}
	for _, wrong := range []ModelSpec{
		{Name: "DistMult", Dim: 16, Seed: 6},
		{Name: "DistMult", Dim: 8, Seed: 7},
		{Name: "TransE", Dim: 8, Seed: 6},
	} {
		wrong.ModelID = id
		if _, err := e.Submit(JobSpec{Model: wrong}); !errors.Is(err, ErrUnknownModel) {
			t.Fatalf("job naming the upload as %s/%d/%d: err = %v, want ErrUnknownModel", wrong.Name, wrong.Dim, wrong.Seed, err)
		}
	}
	if ms := e.Stats().Models; ms.Entries != 1 || ms.Misses != 0 {
		t.Fatalf("mismatched jobs touched the upload: %+v", ms)
	}
	right.ModelID = id
	j, err := e.Submit(JobSpec{Model: right, Strategy: "R", MaxQueries: 10})
	if err != nil {
		t.Fatalf("job naming the upload with its own arguments: %v", err)
	}
	if st := waitJob(t, j); st.State != StateSucceeded {
		t.Fatalf("job by id after mismatched ones: %s (%s)", st.State, st.Error)
	}
	// The same bytes under other arguments are another model: upload them so.
	other := ModelSpec{Name: "DistMult", Dim: 8, Seed: 7}
	if again, _, err := e.PutModel(other, bytes.NewReader(snap), 0); err != nil || again != id {
		t.Fatalf("second upload of the same bytes = %q, %v; want the same id", again, err)
	}
	other.ModelID = id
	if j, err = e.Submit(JobSpec{Model: other, Strategy: "R", MaxQueries: 10}); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateSucceeded {
		t.Fatalf("job under the second upload's arguments: %s (%s)", st.State, st.Error)
	}
	if _, _, err := e.PutModel(ModelSpec{Name: "NoSuchModel", Dim: 8}, bytes.NewReader(snap), 0); err == nil {
		t.Fatal("upload under an unknown model name accepted")
	}
}

// A submission the engine sheds — queue full, draining — has not been hashed
// into the registry and has evicted nothing jobs in flight share.
func TestRegistryShedSubmissionsLeaveItAlone(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	armFault(t, faults.SiteWorker, faults.Plan{Action: faults.Stall, Stall: 10 * time.Second, Limit: 1})
	spec := func(seed int64) JobSpec {
		return JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: seed, Snapshot: snapshotModel(t, g, "DistMult", 8, seed)}, Strategy: "R", MaxQueries: 10}
	}
	running, err := e.Submit(spec(1))
	if err != nil {
		t.Fatal(err)
	}
	for running.State() == StateQueued {
		time.Sleep(time.Millisecond)
	}
	if _, err := e.Submit(spec(2)); err != nil { // fills the queue
		t.Fatal(err)
	}
	before := e.Stats().Models
	if _, err := e.Submit(spec(3)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission into a full queue: err = %v, want ErrQueueFull", err)
	}
	e.Drain(time.Millisecond)
	if _, err := e.Submit(spec(4)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submission after a drain: err = %v, want ErrDraining", err)
	}
	if after := e.Stats().Models; after != before {
		t.Fatalf("shed submissions changed the registry: %+v → %+v", before, after)
	}
}

// PutModel does not reserve a buffer on the say-so of a declared length.
func TestRegistryPutModelReservesByArrival(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	snap := snapshotModel(t, g, "DistMult", 8, 6)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := e.PutModel(ModelSpec{Name: "DistMult", Dim: 8, Seed: 6}, bytes.NewReader(snap), 512<<20); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("a %d-byte upload declaring 512 MiB allocated %d bytes", len(snap), grew)
	}
}

// A snapshot with the right name and dim but the wrong length fails its job
// before the model it names is allocated — a TuckER at dim 256 is a 134 MB
// core — and the engine goes on serving.
func TestRegistryWrongLengthSnapshotAllocatesNothing(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	size, err := kgc.SnapshotBytes("TuckER", g, 256)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	j, err := e.Submit(JobSpec{Model: ModelSpec{Name: "TuckER", Dim: 256, Seed: 1, Snapshot: []byte("KGEVALM1")}, Strategy: "R", MaxQueries: 10})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	runtime.ReadMemStats(&after)
	if st.State != StateFailed || !strings.Contains(st.Error, "loading TuckER snapshot") {
		t.Fatalf("job over an 8-byte TuckER snapshot: %s (%q)", st.State, st.Error)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= uint64(size) {
		t.Fatalf("refusing an 8-byte snapshot allocated %d bytes, the model is %d", grew, size)
	}
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snapshotModel(t, g, "DistMult", 8, 6)}, Strategy: "R", MaxQueries: 10}
	if j, err = e.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, j); st.State != StateSucceeded {
		t.Fatalf("job after the refused snapshot: %s (%s)", st.State, st.Error)
	}
}

// Constructor arguments whose model would not fit in a request are a 400 on
// both routes, whatever the bytes: a TuckER at dim 2048 is a 64 GiB core that
// an 8-byte snapshot would otherwise have a worker allocate (and the process
// die of), even under a memory budget, which charges the bytes it is sent.
func TestServerOversizeModelSpec(t *testing.T) {
	srv, e := newTestServer(t, EngineConfig{Workers: 1, MemoryBudget: 64 << 20})
	magic := base64.StdEncoding.EncodeToString([]byte("KGEVALM1"))
	for _, args := range []struct {
		name string
		dim  int
	}{{"TuckER", 2048}, {"RESCAL", 4096}, {"ComplEx", 2147483647}} {
		body := fmt.Sprintf(`{"model":{"name":%q,"dim":%d,"snapshot":%q}}`, args.name, args.dim, magic)
		if resp, out := postRaw(t, srv.URL, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST /v1/jobs for %s at dim %d: %s %v, want 400", args.name, args.dim, resp.Status, out)
		}
		query := fmt.Sprintf("name=%s&dim=%d", args.name, args.dim)
		if resp, out := putModel(t, srv.URL, query, strings.NewReader("KGEVALM1")); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("PUT /v1/models?%s: %s %v, want 400", query, resp.Status, out)
		}
	}
	if ms := e.Stats().Models; ms.Entries != 0 {
		t.Errorf("refused specs registered models: %+v", ms)
	}
	spec := JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 6, Snapshot: snapshotModel(t, e.Graph(), "DistMult", 8, 6)}, Strategy: "R", MaxQueries: 10}
	if st := waitTerminal(t, srv.URL, submitJob(t, srv.URL, spec).ID); st.State != StateSucceeded {
		t.Fatalf("job after the refused specs: %s (%s)", st.State, st.Error)
	}
}

// distMultArgs are the upload arguments of the DistMult/8/6 snapshot several
// tests below use.
const distMultArgs = "name=DistMult&dim=8&seed=6"

// putModel uploads body under the constructor arguments in query, e.g.
// "name=DistMult&dim=8&seed=6".
func putModel(t *testing.T, base, query string, body io.Reader) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, base+"/v1/models?"+query, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("PUT /v1/models answered %s with an undecodable body: %v", resp.Status, err)
	}
	return resp, out
}

func postRaw(t *testing.T, base, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST /v1/jobs answered %s with an undecodable body: %v", resp.Status, err)
	}
	return resp, out
}

// The register-once workflow over HTTP: PUT the bytes, run jobs by id; an
// inline snapshot is the same thing and says so in its Status.
func TestServerPutModelThenJobsByID(t *testing.T) {
	srv, e := newTestServer(t, EngineConfig{Workers: 1})
	g := e.Graph()
	snap := snapshotModel(t, g, "ComplEx", 16, 3)

	resp, out := putModel(t, srv.URL, "name=ComplEx&dim=16&seed=3", bytes.NewReader(snap))
	if resp.StatusCode != http.StatusCreated || out["model_id"] != modelDigest(snap) || out["bytes"] != float64(len(snap)) {
		t.Fatalf("PUT /v1/models = %s %v", resp.Status, out)
	}
	id := out["model_id"].(string)

	byID := JobSpec{Model: ModelSpec{Name: "ComplEx", Dim: 16, Seed: 3, ModelID: id}, Strategy: "P", MaxQueries: 50}
	first := waitTerminal(t, srv.URL, submitJob(t, srv.URL, byID).ID)
	if first.State != StateSucceeded || first.ModelCacheHit || first.LoadMS <= 0 {
		t.Fatalf("first job by id: state %s (%s), model_cache_hit %v, load_ms %v — want a parse", first.State, first.Error, first.ModelCacheHit, first.LoadMS)
	}
	second := waitTerminal(t, srv.URL, submitJob(t, srv.URL, byID).ID)
	if second.State != StateSucceeded || !second.ModelCacheHit {
		t.Fatalf("second job by id: state %s, model_cache_hit %v", second.State, second.ModelCacheHit)
	}
	inline := byID
	inline.Model.ModelID, inline.Model.Snapshot = "", snap
	third := waitTerminal(t, srv.URL, submitJob(t, srv.URL, inline).ID)
	if third.State != StateSucceeded || !third.ModelCacheHit || third.ModelID != id {
		t.Fatalf("inline job over registered bytes: state %s, model_cache_hit %v, model_id %q", third.State, third.ModelCacheHit, third.ModelID)
	}
	if first.Result.MRR != second.Result.MRR || first.Result.MRR != third.Result.MRR {
		t.Fatalf("one model, one spec, three MRRs: %v %v %v", first.Result.MRR, second.Result.MRR, third.Result.MRR)
	}
	if want := libraryMRR(t, e, "ComplEx", 16, 3, snap, byID); first.Result.MRR != want {
		t.Fatalf("job by id MRR %v, library %v", first.Result.MRR, want)
	}
	// load and fit come before the evaluation, inside the run.
	run := second.FinishedAt.Sub(*second.StartedAt).Seconds() * 1000
	if stated := second.LoadMS + second.FitMS + second.Result.ElapsedMS; stated > run {
		t.Fatalf("stated stages %v ms exceed the %v ms run", stated, run)
	}

	// The terminal SSE event is the same Status.
	events := readSSE(t, srv.URL+"/v1/jobs/"+second.ID+"/stream")
	if done := events[len(events)-1]; done.typ != "done" || !done.status.ModelCacheHit || done.status.ModelID != id {
		t.Fatalf("terminal SSE event = %s %+v", done.typ, done.status)
	}

	// The registry's outcome is on the job's trace next to the cache's.
	for jobID, want := range map[string]string{first.ID: "model.miss", second.ID: "model.hit"} {
		var tr trace.Trace
		if code := getJSON(t, srv.URL+"/v1/jobs/"+jobID+"/trace", &tr); code != http.StatusOK {
			t.Fatalf("GET job trace: %d", code)
		}
		found := false
		for _, s := range tr.Spans {
			for _, ev := range s.Events {
				found = found || ev.Name == want
			}
		}
		if !found {
			t.Errorf("job %s trace carries no %s event", jobID, want)
		}
	}

	var stats EngineStats
	if code := getJSON(t, srv.URL+"/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("GET /v1/stats: %d", code)
	}
	if m := stats.Models; m.Misses != 1 || m.Hits != 2 || m.Entries != 1 || m.Bytes != int64(len(snap)) {
		t.Fatalf("stats models block = %+v", m)
	}
	body := fetchMetrics(t, srv.URL)
	for name, want := range map[string]float64{
		"kgeval_model_cache_hits_total":      2,
		"kgeval_model_cache_misses_total":    1,
		"kgeval_model_cache_evictions_total": 0,
		"kgeval_model_cache_bytes":           float64(len(snap)),
	} {
		if got := metricValue(body, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

// Submission errors a client can act on: 404 unknown_model (upload again),
// 400 for a spec that names its model twice or trails garbage, 413 for a
// body over the cap on either endpoint.
func TestServerModelSubmissionErrors(t *testing.T) {
	srv, e := newTestServer(t, EngineConfig{Workers: 1})
	snap := snapshotModel(t, e.Graph(), "DistMult", 8, 6)
	b64 := func() string { s, _ := json.Marshal(snap); return string(s) }()

	resp, out := postRaw(t, srv.URL, `{"model":{"name":"DistMult","dim":8,"seed":6,"model_id":"`+strings.Repeat("0", 64)+`"}}`)
	if resp.StatusCode != http.StatusNotFound || out["code"] != "unknown_model" {
		t.Errorf("job naming an id never uploaded: %s %v, want 404 unknown_model", resp.Status, out)
	}
	resp, out = postRaw(t, srv.URL, `{"model":{"name":"DistMult","dim":8,"seed":6,"snapshot":`+b64+`,"model_id":"`+modelDigest(snap)+`"}}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(out["error"].(string), "not both") {
		t.Errorf("snapshot and model_id together: %s %v, want 400", resp.Status, out)
	}
	ok := `{"model":{"name":"DistMult","dim":8,"seed":6,"snapshot":` + b64 + `},"max_queries":10}`
	for _, tail := range []string{"x", "{}", "]", ` "more"`} {
		if resp, out = postRaw(t, srv.URL, ok+tail); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body with trailing %q: %s %v, want 400", tail, resp.Status, out)
		}
	}
	if resp, out = postRaw(t, srv.URL, ok+" \n\t"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("body with trailing whitespace: %s %v, want 202", resp.Status, out)
	}
	if resp, out = putModel(t, srv.URL, distMultArgs, bytes.NewReader(nil)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty upload: %s %v, want 400", resp.Status, out)
	}
	for _, args := range []string{"", "dim=8&seed=6", "name=DistMult&dim=eight", "name=DistMult&dim=8&sead=6", "name=NoSuchModel&dim=8"} {
		if resp, out = putModel(t, srv.URL, args, bytes.NewReader(snap)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("upload with arguments %q: %s %v, want 400", args, resp.Status, out)
		}
	}
	if ms := e.Stats().Models; ms.Entries != 1 { // the accepted job's inline snapshot
		t.Errorf("refused uploads were registered: %+v", ms)
	}

	old := maxSubmitBytes
	maxSubmitBytes = int64(len(snap)) / 2
	defer func() { maxSubmitBytes = old }()
	if resp, out = postRaw(t, srv.URL, ok); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized POST /v1/jobs: %s %v, want 413", resp.Status, out)
	}
	if resp, out = putModel(t, srv.URL, distMultArgs, bytes.NewReader(snap)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized PUT /v1/models: %s %v, want 413", resp.Status, out)
	}
	// Unknown length (chunked): the cap still holds. DistMult/8 itself is now
	// over the cap, a 400 before the body is read, so the bytes are filed
	// under arguments whose model fits.
	if resp, out = putModel(t, srv.URL, "name=DistMult&dim=1", io.MultiReader(bytes.NewReader(snap))); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized chunked PUT /v1/models: %s %v, want 413", resp.Status, out)
	}
}

// unreadBody is a request body no handler may read.
type unreadBody struct{ t *testing.T }

func (b unreadBody) Read([]byte) (int, error) {
	b.t.Error("the body of a request refused on its Content-Length was read")
	return 0, io.ErrUnexpectedEOF
}

// A Content-Length over the cap is a 413 on both body-taking routes before a
// byte is read, so an oversized job spec is never base64-decoded or hashed.
func TestServerRefusesDeclaredOversizeOnTheHeader(t *testing.T) {
	e, err := NewEngine(EngineConfig{Graph: serviceGraph(t), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	h := NewServer(e)
	for _, target := range []string{"POST /v1/jobs", "PUT /v1/models?" + distMultArgs} {
		method, url, _ := strings.Cut(target, " ")
		req := httptest.NewRequest(method, url, unreadBody{t})
		req.ContentLength = maxSubmitBytes + 1
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s declaring %d bytes: %d %s, want 413", target, req.ContentLength, rec.Code, rec.Body)
		}
	}
}

// An upload larger than the registry could ever hold is refused up front.
func TestServerPutModelLargerThanCache(t *testing.T) {
	setVar(t, &modelCacheBytes, 64)
	srv, e := newTestServer(t, EngineConfig{Workers: 1})
	snap := snapshotModel(t, e.Graph(), "DistMult", 8, 6)
	if resp, out := putModel(t, srv.URL, distMultArgs, bytes.NewReader(snap)); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("upload over the registry's capacity: %s %v, want 413", resp.Status, out)
	}
}

// The registry's capacity is the memory budget when one is set, larger than
// the unbudgeted 1 GiB or not, and 1 GiB otherwise: one memory knob.
func TestRegistryCapIsTheBudget(t *testing.T) {
	g := serviceGraph(t)
	for _, tc := range []struct{ budget, want int64 }{{0, 1 << 30}, {2 << 30, 2 << 30}} {
		e, err := NewEngine(EngineConfig{Graph: g, Workers: 1, MemoryBudget: tc.budget})
		if err != nil {
			t.Fatal(err)
		}
		got := e.Stats().Models.CapBytes
		e.Close()
		if got != tc.want {
			t.Errorf("registry capacity with a %d-byte budget = %d, want %d", tc.budget, got, tc.want)
		}
	}
}

// A job cancelled while its worker stalls at the service/worker site returns
// from the stall with its context's error and must not go on to load its
// models: the registry stays untouched.
func TestRegistryCancelledStallLoadsNothing(t *testing.T) {
	g := serviceGraph(t)
	e, err := NewEngine(EngineConfig{Graph: g, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	armFault(t, faults.SiteWorker, faults.Plan{Action: faults.Stall, Stall: 10 * time.Second, Limit: 1})
	snap := snapshotModel(t, g, "DistMult", 8, 1)
	j, err := e.Submit(JobSpec{Model: ModelSpec{Name: "DistMult", Dim: 8, Seed: 1, Snapshot: snap}, Strategy: "R", MaxQueries: 10})
	if err != nil {
		t.Fatal(err)
	}
	busy := func(want float64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); e.metrics.busyWorkers.Value() != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("busy workers never reached %v", want)
			}
		}
	}
	busy(1) // the worker has claimed the job and is in the stall
	// End the context alone, as Cancel and a drain do before the terminal
	// transition drops the job's models: the worker sees exactly that window.
	j.cancel()
	busy(0)
	if ms := e.Stats().Models; ms.Misses != 0 || ms.Hits != 0 {
		t.Fatalf("cancelled job loaded its models: %+v", ms)
	}
}

// Uploads stop with admission: a draining server answers 503 + Retry-After.
func TestServerPutModelDuringDrain(t *testing.T) {
	srv, e := newTestServer(t, EngineConfig{Workers: 1})
	snap := snapshotModel(t, e.Graph(), "DistMult", 8, 6)
	e.Drain(time.Second)
	resp, out := putModel(t, srv.URL, distMultArgs, bytes.NewReader(snap))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("PUT during drain: %s (Retry-After %q) %v, want 503 with Retry-After", resp.Status, resp.Header.Get("Retry-After"), out)
	}
	if ms := e.Stats().Models; ms.Entries != 0 {
		t.Fatalf("drained engine registered an upload: %+v", ms)
	}
}
