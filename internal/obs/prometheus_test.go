package obs

import (
	"net/http/httptest"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the full exposition format: family
// ordering, HELP/TYPE lines, label rendering and escaping, cumulative
// histogram buckets with +Inf, _sum and _count.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("kg_requests_total", "Requests served.", Label{"method", "POST"}).Add(3)
	r.Counter("kg_requests_total", "Requests served.", Label{"method", "GET"}).Add(7)
	r.Gauge("kg_queue_depth", "Jobs waiting.").Set(2)
	r.GaugeFunc("kg_workers", "Configured workers.", func() float64 { return 4 })
	h := r.Histogram("kg_latency_seconds", "Job latency.", []float64{0.1, 1}, Label{"state", `a"b\c`})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(30)

	var b strings.Builder
	if err := WritePrometheus(&b, r); err != nil {
		t.Fatal(err)
	}
	want := `# HELP kg_latency_seconds Job latency.
# TYPE kg_latency_seconds histogram
kg_latency_seconds_bucket{state="a\"b\\c",le="0.1"} 2
kg_latency_seconds_bucket{state="a\"b\\c",le="1"} 3
kg_latency_seconds_bucket{state="a\"b\\c",le="+Inf"} 4
kg_latency_seconds_sum{state="a\"b\\c"} 30.6
kg_latency_seconds_count{state="a\"b\\c"} 4
# HELP kg_queue_depth Jobs waiting.
# TYPE kg_queue_depth gauge
kg_queue_depth 2
# HELP kg_requests_total Requests served.
# TYPE kg_requests_total counter
kg_requests_total{method="GET"} 7
kg_requests_total{method="POST"} 3
# HELP kg_workers Configured workers.
# TYPE kg_workers gauge
kg_workers 4
`
	if got := b.String(); got != want {
		t.Fatalf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestWritePrometheusMergesRegistries checks that Handler-style multi-
// registry exposition merges families, dedupes repeated registries, and
// never emits a family twice.
func TestWritePrometheusMergesRegistries(t *testing.T) {
	a := NewRegistry()
	b := NewRegistry()
	a.Counter("shared_total", "Shared.", Label{"src", "a"}).Inc()
	b.Counter("shared_total", "Shared.", Label{"src", "b"}).Add(2)
	a.Gauge("only_a", "").Set(1)

	var out strings.Builder
	if err := WritePrometheus(&out, a, b, a, nil); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Count(got, "# TYPE shared_total counter") != 1 {
		t.Fatalf("family header duplicated:\n%s", got)
	}
	for _, line := range []string{
		`shared_total{src="a"} 1`,
		`shared_total{src="b"} 2`,
		"only_a 1",
	} {
		if !strings.Contains(got, line) {
			t.Fatalf("missing %q in:\n%s", line, got)
		}
	}
}

// TestWriteOpenMetricsExemplar checks that a histogram's last exemplar is
// rendered in the OpenMetrics exposition on exactly the bucket its value
// falls into, nowhere when no exemplar was recorded, and NEVER in the
// classic 0.0.4 format (whose parser rejects exemplar syntax).
func TestWriteOpenMetricsExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ex_seconds", "", []float64{0.1, 1})
	h.Observe(0.05)

	var plain strings.Builder
	if err := WriteOpenMetrics(&plain, r); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plain.String(), "trace_id") {
		t.Fatalf("exemplar emitted without one recorded:\n%s", plain.String())
	}
	if !strings.HasSuffix(plain.String(), "# EOF\n") {
		t.Fatalf("OpenMetrics exposition lacks the # EOF terminator:\n%s", plain.String())
	}

	h.ObserveExemplar(0.5, "0123456789abcdef0123456789abcdef")

	// The classic format must stay exemplar-free even with one recorded:
	// the 0.0.4 parser rejects any token after the sample value.
	var classic strings.Builder
	if err := WritePrometheus(&classic, r); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(classic.String(), "\n") {
		if !strings.HasPrefix(line, "#") && strings.Contains(line, "#") {
			t.Fatalf("classic 0.0.4 line carries exemplar syntax: %q", line)
		}
	}

	var out strings.Builder
	if err := WriteOpenMetrics(&out, r); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if strings.Count(got, "trace_id") != 1 {
		t.Fatalf("want exactly one exemplar annotation:\n%s", got)
	}
	var exLine string
	for _, line := range strings.Split(got, "\n") {
		if strings.Contains(line, "trace_id") {
			exLine = line
		}
	}
	if !strings.HasPrefix(exLine, `ex_seconds_bucket{le="1"} 2 # {trace_id="0123456789abcdef0123456789abcdef"} 0.5 `) {
		t.Fatalf("exemplar on wrong bucket or malformed: %q", exLine)
	}

	// A value above every bound annotates the +Inf bucket.
	h.ObserveExemplar(42, "ffff0000ffff0000ffff0000ffff0000")
	out.Reset()
	if err := WriteOpenMetrics(&out, r); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "trace_id") && !strings.Contains(line, `le="+Inf"`) {
			t.Fatalf("exemplar for out-of-range value not on +Inf: %q", line)
		}
	}

	// Empty trace ID observes without replacing the stored exemplar.
	h.ObserveExemplar(0.2, "")
	if ex := h.LastExemplar(); ex == nil || ex.TraceID != "ffff0000ffff0000ffff0000ffff0000" {
		t.Fatalf("empty-ID observe clobbered exemplar: %+v", ex)
	}
}

// TestWriteOpenMetricsCounterFamily pins the OpenMetrics counter shape:
// the family header drops the _total suffix while samples keep it.
func TestWriteOpenMetricsCounterFamily(t *testing.T) {
	r := NewRegistry()
	r.Counter("om_requests_total", "Requests.").Add(5)

	var out strings.Builder
	if err := WriteOpenMetrics(&out, r); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"# HELP om_requests Requests.\n",
		"# TYPE om_requests counter\n",
		"om_requests_total 5\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("missing %q in:\n%s", want, got)
		}
	}
	// The classic format keeps the registered name on the header lines.
	var classic strings.Builder
	if err := WritePrometheus(&classic, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(classic.String(), "# TYPE om_requests_total counter\n") {
		t.Fatalf("classic TYPE line rewritten:\n%s", classic.String())
	}
}

// TestRuntimeSampler checks the sampler populates its gauges synchronously
// on start and that stop terminates the goroutine.
func TestRuntimeSampler(t *testing.T) {
	r := NewRegistry()
	stop := StartRuntimeSampler(r)
	defer stop()

	var out strings.Builder
	if err := WritePrometheus(&out, r); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, name := range []string{
		"kgeval_runtime_goroutines",
		"kgeval_runtime_heap_alloc_bytes",
		"kgeval_runtime_heap_objects",
		"kgeval_runtime_gc_pause_total_seconds",
		"kgeval_runtime_gc_runs_total",
		"kgeval_runtime_next_gc_bytes",
	} {
		if !strings.Contains(got, name+" ") {
			t.Fatalf("missing %s in:\n%s", name, got)
		}
	}
	if g := r.Gauge("kgeval_runtime_heap_alloc_bytes", ""); g.Value() <= 0 {
		t.Fatalf("heap_alloc_bytes = %v, want > 0", g.Value())
	}
	stop() // idempotent: the deferred second call must not panic
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "").Inc()
	h := r.Histogram("h_seconds", "", []float64{1})
	h.ObserveExemplar(0.5, "0123456789abcdef0123456789abcdef")

	// No Accept header → classic 0.0.4, no exemplars, no # EOF.
	rec := httptest.NewRecorder()
	Handler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, "h_total 1") ||
		strings.Contains(body, "trace_id") || strings.Contains(body, "# EOF") {
		t.Fatalf("classic body = %q", body)
	}

	// Prometheus-style Accept header negotiates OpenMetrics with exemplars.
	rec = httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "application/openmetrics-text;version=1.0.0;q=0.75,text/plain;version=0.0.4;q=0.5")
	Handler(r).ServeHTTP(rec, req)
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/openmetrics-text; version=1.0.0") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, "trace_id") || !strings.HasSuffix(body, "# EOF\n") {
		t.Fatalf("OpenMetrics body = %q", body)
	}
}

func TestAcceptsOpenMetrics(t *testing.T) {
	for accept, want := range map[string]bool{
		"":                             false,
		"text/plain":                   false,
		"application/openmetrics-text": true,
		"application/openmetrics-text; version=1.0.0; q=0.8, text/plain;q=0.5": true,
		"text/plain;q=0.5, application/openmetrics-text;version=1.0.0":         true,
		"application/openmetrics-text;q=0":                                     false,
		"*/*":                                                                  false,
	} {
		if got := acceptsOpenMetrics(accept); got != want {
			t.Errorf("acceptsOpenMetrics(%q) = %v, want %v", accept, got, want)
		}
	}
}
