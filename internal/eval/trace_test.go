package eval

import (
	"context"
	"testing"

	"kgeval/internal/kg"
	"kgeval/internal/kgc"
	"kgeval/internal/obs/trace"
)

// TestEvaluateTraced runs a traced pass and checks the span tree the eval
// pipeline records: plan compile with pool draw under it, one pass span per
// model, and per-task chunk children carrying the relations and directed
// queries the task mixed, pool sizes, strips swept, precision and tile.
func TestEvaluateTraced(t *testing.T) {
	g := evalGraph(t)
	filter := kg.NewFilterIndex(g.Train, g.Valid, g.Test)
	prov := &RandomProvider{NumEntities: g.NumEntities, N: 20}

	store := trace.NewStore(0, 1024)
	ctx, root := store.StartTrace(context.Background(), "test-eval")
	results := EvaluateMany([]kgc.Model{formulaModel{}, formulaModel{}}, g, g.Test, prov,
		Options{Filter: filter, Seed: 3, Workers: 2, Ctx: ctx})
	root.End()
	if len(results) != 2 || results[0].Queries == 0 {
		t.Fatalf("evaluation failed under tracing: %+v", results)
	}

	tr := root.Recorder().Snapshot()
	byName := map[string][]trace.SpanRecord{}
	spanByID := map[string]trace.SpanRecord{}
	for _, s := range tr.Spans {
		byName[s.Name] = append(byName[s.Name], s)
		spanByID[s.SpanID] = s
	}

	if n := len(byName["eval.plan_compile"]); n != 1 {
		t.Fatalf("got %d plan_compile spans, want 1", n)
	}
	compile := byName["eval.plan_compile"][0]
	if compile.Parent != byName["test-eval"][0].SpanID {
		t.Fatal("plan_compile is not a child of the root span")
	}
	if n := len(byName["eval.pool_draw"]); n != 1 {
		t.Fatalf("got %d pool_draw spans, want 1", n)
	}
	draw := byName["eval.pool_draw"][0]
	if draw.Parent != compile.SpanID {
		t.Fatal("pool_draw is not a child of plan_compile")
	}
	// A Random draw never leaves the rng's stream, so one goroutine makes it.
	if draw.Attr("workers") != 1 || draw.Attr("provider") != "Random" || draw.Attr("cached") != false {
		t.Fatalf("pool_draw attrs = %v, want a draw (cached false) on 1 worker for Random", draw.Attrs)
	}
	if v, ok := compile.Attr("relations").(int); !ok || v <= 0 {
		t.Fatalf("plan_compile relations attr = %v", compile.Attr("relations"))
	}

	passes := byName["eval.pass"]
	if len(passes) != 2 {
		t.Fatalf("got %d pass spans, want 2 (one per model)", len(passes))
	}
	passIDs := map[string]bool{}
	for _, p := range passes {
		if p.Parent != byName["test-eval"][0].SpanID {
			t.Fatal("pass is not a child of the root span")
		}
		if p.Attr("model") != "formula" {
			t.Fatalf("pass model attr = %v", p.Attr("model"))
		}
		if p.Attr("kernel") != kgc.Kernel() {
			t.Fatalf("pass kernel attr = %v, the process scores on %q", p.Attr("kernel"), kgc.Kernel())
		}
		if r, ok := p.Attr("rescored").(int64); !ok || r != 0 {
			t.Fatalf("pass rescored attr = %v, want 0: a plain model's scores are exact", p.Attr("rescored"))
		}
		if q, ok := p.Attr("queries").(int); !ok || q != results[0].Queries {
			t.Fatalf("pass queries attr = %v, want %d", p.Attr("queries"), results[0].Queries)
		}
		passIDs[p.SpanID] = true
	}

	chunks := byName["eval.chunk"]
	if len(chunks) == 0 {
		t.Fatal("no chunk spans recorded")
	}
	for _, c := range chunks {
		if !passIDs[c.Parent] {
			t.Fatalf("chunk %s not parented under a pass span", c.SpanID)
		}
		for _, key := range []string{"relations", "queries", "pool_tail", "pool_head", "strips"} {
			if v, ok := c.Attr(key).(int); !ok || v <= 0 {
				t.Fatalf("chunk missing positive int attr %q: %v", key, c.Attrs)
			}
		}
		// Drawn pools are never shared: one relation, its two directions.
		if c.Attr("relations") != 1 || c.Attr("queries").(int)%2 != 0 {
			t.Fatalf("chunk over drawn pools mixes relations or lacks a direction: %v", c.Attrs)
		}
		if c.Attr("precision") != "float64" {
			t.Fatalf("chunk precision attr = %v", c.Attr("precision"))
		}
	}

	// CPU-summed synthetic stage spans, two per pass.
	if n := len(byName["eval.score"]); n != 2 {
		t.Fatalf("got %d score stage spans, want 2", n)
	}
	if byName["eval.score"][0].Attr("timing") != "cpu-summed" {
		t.Fatal("score stage span not tagged cpu-summed")
	}

	// Through a pool memo the first plan draws and says so; the second is
	// served the set, and its span must not read as a draw: no worker drew.
	remembered := NewPoolMemo(1<<20).Remember(prov, prov.N)
	for _, wantCached := range []bool{false, true} {
		ctx, root := store.StartTrace(context.Background(), "test-memo")
		res := Evaluate(formulaModel{}, g, g.Test, remembered, Options{Filter: filter, Seed: 3, Workers: 2, Ctx: ctx})
		root.End()
		rec := root.Recorder()
		draws, wantWorkers := 0, 1
		if wantCached {
			wantWorkers = 0
		}
		for _, s := range rec.Snapshot().Spans {
			if s.Name != "eval.pool_draw" {
				continue
			}
			draws++
			if s.Attr("cached") != wantCached || s.Attr("workers") != wantWorkers || s.Attr("provider") != "Random" {
				t.Fatalf("pool_draw attrs = %v, want cached %v on %d workers", s.Attrs, wantCached, wantWorkers)
			}
		}
		if draws != 1 {
			t.Fatalf("got %d pool_draw spans (cached %v), want 1", draws, wantCached)
		}
		if res.Metrics != results[0].Metrics {
			t.Fatalf("pass through the memo (cached %v) = %+v, without = %+v", wantCached, res.Metrics, results[0].Metrics)
		}
	}

	// Untraced context: same evaluation, no spans, no panic.
	plain := Evaluate(formulaModel{}, g, g.Test, prov, Options{Filter: filter, Seed: 3, Workers: 2})
	if plain.Queries != results[0].Queries {
		t.Fatalf("untraced pass diverged: %d vs %d queries", plain.Queries, results[0].Queries)
	}
}
