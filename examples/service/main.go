// Evaluation-as-a-service: start the kgevald engine in-process, then drive
// it purely over HTTP the way external clients would — upload serialized
// model snapshots once, submit jobs that name them concurrently, compare
// candidate-sampling strategies, watch live SSE progress, run a multi-model
// job that scores the whole fleet over shared candidate pools, and cancel a
// job mid-flight. The second and later jobs per strategy hit the
// fitted-framework cache and every job after a model's first hits the model
// registry, so recommender fitting and model parsing are each paid once
// across the whole workload.
//
//	go run ./examples/service
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"kgeval/internal/kgc"
	"kgeval/internal/service"
	"kgeval/internal/synth"
)

func main() {
	log.SetFlags(0)

	// 1. Host graph + engine + HTTP server on a loopback listener. In
	// production this is `kgevald -dataset codexm-sim`.
	ds, err := synth.Generate(synth.CoDExMSim())
	if err != nil {
		log.Fatal(err)
	}
	g := ds.Graph
	engine, err := service.NewEngine(service.EngineConfig{Graph: g, Workers: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer engine.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: service.NewServer(engine)}
	go srv.Serve(ln) //nolint:errcheck // closed on exit
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("kgevald serving %s at %s\n", g.Name, base)

	// 2. Train two small models, serialize them, and upload each snapshot
	// once — what a training pipeline would do per checkpoint. The server
	// answers with the model's id (the SHA-256 of its bytes); jobs name that.
	snapshots := map[string][]byte{}
	ids := map[string]string{}
	dims := map[string]int{"ComplEx": 32, "DistMult": 24}
	for name, dim := range dims {
		m, err := kgc.New(name, g, dim, 1)
		if err != nil {
			log.Fatal(err)
		}
		cfg := kgc.DefaultTrainConfig()
		cfg.Epochs = 6
		kgc.Train(m, g, cfg)
		var buf bytes.Buffer
		if err := kgc.Save(&buf, m); err != nil {
			log.Fatal(err)
		}
		snapshots[name] = buf.Bytes()
		ids[name] = putModel(base, name, dim, 1, buf.Bytes())
		fmt.Printf("trained + uploaded %s (%d bytes) as %.12s…\n", name, buf.Len(), ids[name])
	}

	// 3. Submit every (model, strategy) pair concurrently over HTTP.
	type submitted struct {
		model, strategy, id string
	}
	var (
		mu   sync.Mutex
		jobs []submitted
		wg   sync.WaitGroup
	)
	for name, dim := range dims {
		for _, strat := range []string{"R", "P", "S"} {
			wg.Add(1)
			go func(name string, dim int, strat string) {
				defer wg.Done()
				spec := service.JobSpec{
					Model:    service.ModelSpec{Name: name, Dim: dim, Seed: 1, ModelID: ids[name]},
					Strategy: strat,
				}
				st := postJob(base, spec)
				mu.Lock()
				jobs = append(jobs, submitted{name, strat, st.ID})
				mu.Unlock()
			}(name, dim, strat)
		}
	}
	wg.Wait()
	fmt.Printf("submitted %d jobs\n", len(jobs))

	// 4. Follow one job's SSE stream until it finishes.
	streamID := jobs[0].id
	fmt.Printf("\nstreaming %s:\n", streamID)
	streamJob(base, streamID)

	// 5. Wait for the rest by polling their status endpoints.
	results := map[string]service.Status{}
	for _, j := range jobs {
		results[j.id] = waitJob(base, j.id)
	}

	// 6. Submit one multi-model job: both snapshots evaluated over shared
	// candidate pools in a single pass (pools drawn once, models ranked on
	// identical ground), with per-model results in the job output. A model
	// may also ride inline: the server registers it under the same id.
	multi := postJob(base, service.JobSpec{
		Models: []service.ModelSpec{
			{Name: "ComplEx", Dim: 32, Seed: 1, ModelID: ids["ComplEx"]},
			{Name: "DistMult", Dim: 24, Seed: 1, Snapshot: snapshots["DistMult"]},
		},
		Strategy: "P",
	})
	multiSt := waitJob(base, multi.ID)
	fmt.Printf("\nmulti-model job %s (%s), shared pools:\n", multi.ID, multiSt.State)
	for _, r := range multiSt.Results {
		fmt.Printf("  %-10s MRR %.4f Hits@10 %.4f (%.0f ms)\n", r.Model, r.MRR, r.Hits10, r.ElapsedMS)
	}

	// 7. Submit one more job and cancel it mid-flight via the API.
	spec := service.JobSpec{
		Model:    service.ModelSpec{Name: "ComplEx", Dim: 32, Seed: 1, ModelID: ids["ComplEx"]},
		Strategy: "full", // the slow protocol: plenty of time to cancel
	}
	doomed := postJob(base, spec)
	resp, err := http.Post(base+"/v1/jobs/"+doomed.ID+"/cancel", "application/json", nil)
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\ncancelled %s: state=%s\n", doomed.ID, waitJob(base, doomed.ID).State)

	// 8. Report: strategies side by side per model, plus cache traffic.
	fmt.Printf("\n%-10s %-9s %8s %8s %10s %10s\n", "model", "strategy", "MRR", "Hits@10", "scored", "cache")
	sort.Slice(jobs, func(i, j int) bool {
		if jobs[i].model != jobs[j].model {
			return jobs[i].model < jobs[j].model
		}
		return jobs[i].strategy < jobs[j].strategy
	})
	for _, j := range jobs {
		st := results[j.id]
		if st.Result == nil {
			fmt.Printf("%-10s %-9s %8s\n", j.model, j.strategy, st.State)
			continue
		}
		hit := "miss"
		if st.CacheHit {
			hit = "hit"
		}
		fmt.Printf("%-10s %-9s %8.4f %8.4f %10d %10s\n",
			j.model, j.strategy, st.Result.MRR, st.Result.Hits10, st.Result.CandidatesScored, hit)
	}
	var stats service.EngineStats
	getJSON(base+"/v1/stats", &stats)
	fmt.Printf("\nframework cache: %d hits / %d misses (size %d) — Fit ran once per (recommender, n_s)\n",
		stats.Cache.Hits, stats.Cache.Misses, stats.Cache.Size)
	fmt.Printf("model registry:  %d hits / %d misses (%d models, %d bytes) — each snapshot parsed once\n",
		stats.Models.Hits, stats.Models.Misses, stats.Models.Entries, stats.Models.Bytes)
}

// putModel uploads raw kgc.Save bytes under the constructor arguments jobs
// will load them with, and returns the id jobs name them by.
func putModel(base, name string, dim int, seed int64, raw []byte) string {
	args := url.Values{"name": {name}, "dim": {strconv.Itoa(dim)}, "seed": {strconv.FormatInt(seed, 10)}}
	req, err := http.NewRequest(http.MethodPut, base+"/v1/models?"+args.Encode(), bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ModelID string `json:"model_id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		log.Fatalf("upload failed: %s", resp.Status)
	}
	return out.ModelID
}

func postJob(base string, spec service.JobSpec) service.Status {
	body, err := json.Marshal(spec)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		log.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		log.Fatalf("submit failed: %s", resp.Status)
	}
	return st
}

func getJSON(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}

func waitJob(base, id string) service.Status {
	for {
		var st service.Status
		getJSON(base+"/v1/jobs/"+id, &st)
		if st.State.Terminal() {
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// streamJob tails a job's SSE endpoint, printing a coarse progress line per
// event batch until the terminal "done" event arrives.
func streamJob(base, id string) {
	resp, err := http.Get(base + "/v1/jobs/" + id + "/stream")
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	event, lastShown := "", -1
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			var st service.Status
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &st); err != nil {
				log.Fatal(err)
			}
			pct := 0
			if st.Progress.Total > 0 {
				pct = 100 * st.Progress.Done / st.Progress.Total
			}
			if event == "done" {
				if st.Result != nil {
					fmt.Printf("  [%s] %s 100%% — MRR %.4f\n", event, st.State, st.Result.MRR)
				} else {
					fmt.Printf("  [%s] %s (%s)\n", event, st.State, st.Error)
				}
				return
			}
			if pct/25 > lastShown { // print at 25% steps to keep output short
				lastShown = pct / 25
				fmt.Printf("  [%s] %s %d/%d (%d%%)\n", event, st.State, st.Progress.Done, st.Progress.Total, pct)
			}
		}
	}
}
