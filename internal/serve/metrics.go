package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/internal/zeroed"
)

// metrics aggregates service counters. Everything is lock-free atomics;
// per-state gauges are derived from the job table at render time so they
// are exact, not drift-prone increments.
type metrics struct {
	submitted    atomic.Int64
	done         atomic.Int64
	failed       atomic.Int64
	canceled     atomic.Int64
	rowsIngested atomic.Int64
	detectRuns   atomic.Int64
	detectNanos  atomic.Int64

	// Model registry: fit and score are separate phases with separate
	// latency summaries — the whole point of the registry is that score
	// stays orders of magnitude below fit.
	modelsFitted      atomic.Int64
	modelLoadFailures atomic.Int64
	fitRuns           atomic.Int64
	fitNanos          atomic.Int64
	scoreRuns         atomic.Int64
	scoreNanos        atomic.Int64

	// Durability and failure containment (see durability.go).
	modelsQuarantined     atomic.Int64
	manifestWriteFailures atomic.Int64
	manifestMissing       atomic.Int64
	deadlines             atomic.Int64

	// Streaming detection and drift-triggered refits.
	streamRequests atomic.Int64
	streamRows     atomic.Int64
	refitsStarted  atomic.Int64
	refitsSwapped  atomic.Int64
	refitFailures  atomic.Int64

	// Schema-mapped uploads (headers that were permutations or supersets
	// of the model schema) and the extra columns they dropped.
	mappedUploads  atomic.Int64
	droppedColumns atomic.Int64

	// Served detect→repair loop.
	repairRuns    atomic.Int64
	repairNanos   atomic.Int64
	repairedCells atomic.Int64

	// Per-stage fit wall-clock, accumulated from FitInfo.Stages across
	// fits. Stage names arrive with the fit, so this is the one map-backed
	// family; fits are rare enough that a mutex is fine.
	stageMu      sync.Mutex
	stageSeconds map[string]float64
	stageOrder   []string

	// RED: per-route request rate, error rate (via the code label), and
	// duration histograms, observed by the middleware around every request.
	red redTable

	// queueWait is the admission-queue wait histogram — time from submit to
	// runner pickup, split out from handler time so queueing pressure is
	// visible separately from detection cost.
	queueWait histogram
}

// latencyBuckets are the shared histogram bounds, in seconds. They span
// sub-10ms scores to multi-second fits on large uploads.
var latencyBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// histogram is a fixed-bucket Prometheus histogram. A mutex over a small
// int64 slice: observation cost is one lock and one increment, far below
// the request work it measures. The bucket slice is lazily sized on first
// observe so the zero value is usable.
type histogram struct {
	mu     sync.Mutex
	counts []int64 // len(latencyBuckets)+1; last is +Inf
	sum    float64
	n      int64
}

func (h *histogram) observe(sec float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.counts == nil {
		h.counts = make([]int64, len(latencyBuckets)+1)
	}
	i := 0
	for i < len(latencyBuckets) && sec > latencyBuckets[i] {
		i++
	}
	h.counts[i]++
	h.sum += sec
	h.n++
}

// render writes the cumulative-bucket exposition for one histogram series.
// labels is the rendered label set without the le pair ("" or
// `route="POST /v1/jobs"`).
func (h *histogram) render(w io.Writer, name, labels string) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, n := h.sum, h.n
	h.mu.Unlock()
	if counts == nil {
		counts = make([]int64, len(latencyBuckets)+1)
	}
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, b := range latencyBuckets {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, b, cum)
	}
	cum += counts[len(latencyBuckets)]
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	if labels == "" {
		fmt.Fprintf(w, "%s_sum %g\n", name, sum)
		fmt.Fprintf(w, "%s_count %d\n", name, n)
	} else {
		fmt.Fprintf(w, "%s_sum{%s} %g\n", name, labels, sum)
		fmt.Fprintf(w, "%s_count{%s} %d\n", name, labels, n)
	}
}

// routeRED holds one route's request counters by status code plus its
// duration histogram.
type routeRED struct {
	codes map[int]int64
	hist  histogram
}

// redTable is the per-route RED store. Routes are mux patterns (bounded by
// the route table, plus "unmatched"), so the map stays small.
type redTable struct {
	mu      sync.Mutex
	byRoute map[string]*routeRED
}

func (t *redTable) observe(route string, code int, dur time.Duration) {
	t.mu.Lock()
	if t.byRoute == nil {
		t.byRoute = map[string]*routeRED{}
	}
	rr := t.byRoute[route]
	if rr == nil {
		rr = &routeRED{codes: map[int]int64{}}
		t.byRoute[route] = rr
	}
	rr.codes[code]++
	t.mu.Unlock()
	rr.hist.observe(dur.Seconds())
}

// render writes the RED families: request totals by route and code, and
// per-route duration histograms.
func (t *redTable) render(w io.Writer) {
	t.mu.Lock()
	routes := make([]string, 0, len(t.byRoute))
	for r := range t.byRoute {
		routes = append(routes, r)
	}
	sort.Strings(routes)
	type codeCount struct {
		code int
		n    int64
	}
	counts := make(map[string][]codeCount, len(routes))
	for _, r := range routes {
		rr := t.byRoute[r]
		cc := make([]codeCount, 0, len(rr.codes))
		for c, n := range rr.codes {
			cc = append(cc, codeCount{c, n})
		}
		sort.Slice(cc, func(i, j int) bool { return cc[i].code < cc[j].code })
		counts[r] = cc
	}
	t.mu.Unlock()

	fmt.Fprintln(w, "# HELP zeroedd_http_requests_total HTTP requests served, by route pattern and status code.")
	fmt.Fprintln(w, "# TYPE zeroedd_http_requests_total counter")
	for _, r := range routes {
		for _, cc := range counts[r] {
			fmt.Fprintf(w, "zeroedd_http_requests_total{route=%q,code=\"%d\"} %d\n", r, cc.code, cc.n)
		}
	}
	fmt.Fprintln(w, "# HELP zeroedd_http_request_seconds HTTP request duration by route pattern, queue wait included.")
	fmt.Fprintln(w, "# TYPE zeroedd_http_request_seconds histogram")
	t.mu.Lock()
	hists := make([]*routeRED, len(routes))
	for i, r := range routes {
		hists[i] = t.byRoute[r]
	}
	t.mu.Unlock()
	for i, r := range routes {
		hists[i].hist.render(w, "zeroedd_http_request_seconds", fmt.Sprintf("route=%q", r))
	}
}

// addFitStages folds one fit's per-stage breakdown into the cumulative
// stage counters.
func (m *metrics) addFitStages(stages []zeroed.StageTiming) {
	m.stageMu.Lock()
	defer m.stageMu.Unlock()
	if m.stageSeconds == nil {
		m.stageSeconds = map[string]float64{}
	}
	for _, st := range stages {
		if _, seen := m.stageSeconds[st.Name]; !seen {
			m.stageOrder = append(m.stageOrder, st.Name)
		}
		m.stageSeconds[st.Name] += st.Seconds
	}
}

// modelGauge carries one registered model's per-model gauges to render:
// its current version and — when a stream has touched it — its live drift
// reading and refit health.
type modelGauge struct {
	id        string
	version   int
	streaming bool
	drift     stats.DriftGauges
	health    zeroed.RefitHealth
}

// modelGauges snapshots every registered model's version plus the drift
// gauges of the ones with live stream scorers, sorted by id for stable
// exposition output.
func (s *Server) modelGauges() []modelGauge {
	live := s.streamReadings()
	list := s.reg.list()
	out := make([]modelGauge, 0, len(list))
	for _, st := range list {
		g := live[st.ID]
		g.id, g.version = st.ID, st.Version
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// render writes the Prometheus text exposition of the counters plus the
// jobs-by-state and model-count gauges.
func (m *metrics) render(w io.Writer, byState map[JobState]int, modelCount int, models []modelGauge) {
	bm := readBuildMeta
	pgo := 0
	if bm.pgo {
		pgo = 1
	}
	fmt.Fprintln(w, "# HELP zeroedd_build_info Build identity of the running binary; always 1.")
	fmt.Fprintln(w, "# TYPE zeroedd_build_info gauge")
	fmt.Fprintf(w, "zeroedd_build_info{version=%q,go_version=%q,pgo=\"%d\"} 1\n", bm.version, bm.goVersion, pgo)

	m.red.render(w)

	fmt.Fprintln(w, "# HELP zeroedd_queue_wait_seconds Admission-queue wait from job submit to runner pickup.")
	fmt.Fprintln(w, "# TYPE zeroedd_queue_wait_seconds histogram")
	m.queueWait.render(w, "zeroedd_queue_wait_seconds", "")

	fmt.Fprintln(w, "# HELP zeroedd_jobs_submitted_total Jobs accepted into the admission queue.")
	fmt.Fprintln(w, "# TYPE zeroedd_jobs_submitted_total counter")
	fmt.Fprintf(w, "zeroedd_jobs_submitted_total %d\n", m.submitted.Load())

	fmt.Fprintln(w, "# HELP zeroedd_jobs_finished_total Jobs finished, by outcome.")
	fmt.Fprintln(w, "# TYPE zeroedd_jobs_finished_total counter")
	fmt.Fprintf(w, "zeroedd_jobs_finished_total{outcome=\"done\"} %d\n", m.done.Load())
	fmt.Fprintf(w, "zeroedd_jobs_finished_total{outcome=\"failed\"} %d\n", m.failed.Load())
	fmt.Fprintf(w, "zeroedd_jobs_finished_total{outcome=\"canceled\"} %d\n", m.canceled.Load())

	fmt.Fprintln(w, "# HELP zeroedd_jobs_current Retained jobs by lifecycle state.")
	fmt.Fprintln(w, "# TYPE zeroedd_jobs_current gauge")
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed, JobCanceled} {
		fmt.Fprintf(w, "zeroedd_jobs_current{state=%q} %d\n", st, byState[st])
	}

	fmt.Fprintln(w, "# HELP zeroedd_rows_ingested_total Data rows parsed from accepted uploads.")
	fmt.Fprintln(w, "# TYPE zeroedd_rows_ingested_total counter")
	fmt.Fprintf(w, "zeroedd_rows_ingested_total %d\n", m.rowsIngested.Load())

	fmt.Fprintln(w, "# HELP zeroedd_detect_seconds Total detection wall-clock across completed jobs.")
	fmt.Fprintln(w, "# TYPE zeroedd_detect_seconds summary")
	fmt.Fprintf(w, "zeroedd_detect_seconds_sum %g\n", time.Duration(m.detectNanos.Load()).Seconds())
	fmt.Fprintf(w, "zeroedd_detect_seconds_count %d\n", m.detectRuns.Load())

	fmt.Fprintln(w, "# HELP zeroedd_models_current Fitted models currently registered.")
	fmt.Fprintln(w, "# TYPE zeroedd_models_current gauge")
	fmt.Fprintf(w, "zeroedd_models_current %d\n", modelCount)

	fmt.Fprintln(w, "# HELP zeroedd_models_fitted_total Models fitted and registered over the process lifetime.")
	fmt.Fprintln(w, "# TYPE zeroedd_models_fitted_total counter")
	fmt.Fprintf(w, "zeroedd_models_fitted_total %d\n", m.modelsFitted.Load())

	fmt.Fprintln(w, "# HELP zeroedd_model_load_failures_total Persisted artifacts skipped as corrupt or unreadable at startup.")
	fmt.Fprintln(w, "# TYPE zeroedd_model_load_failures_total counter")
	fmt.Fprintf(w, "zeroedd_model_load_failures_total %d\n", m.modelLoadFailures.Load())

	fmt.Fprintln(w, "# HELP zeroedd_models_quarantined_total Corrupt artifacts renamed aside to *.corrupt at startup.")
	fmt.Fprintln(w, "# TYPE zeroedd_models_quarantined_total counter")
	fmt.Fprintf(w, "zeroedd_models_quarantined_total %d\n", m.modelsQuarantined.Load())

	fmt.Fprintln(w, "# HELP zeroedd_manifest_write_failures_total Registry manifest writes that failed (soft: artifacts remain the source of truth).")
	fmt.Fprintln(w, "# TYPE zeroedd_manifest_write_failures_total counter")
	fmt.Fprintf(w, "zeroedd_manifest_write_failures_total %d\n", m.manifestWriteFailures.Load())

	fmt.Fprintln(w, "# HELP zeroedd_manifest_missing_total Manifest-committed artifact versions found missing or unloadable at startup.")
	fmt.Fprintln(w, "# TYPE zeroedd_manifest_missing_total counter")
	fmt.Fprintf(w, "zeroedd_manifest_missing_total %d\n", m.manifestMissing.Load())

	fmt.Fprintln(w, "# HELP zeroedd_request_deadlines_total Requests that exceeded the configured request timeout.")
	fmt.Fprintln(w, "# TYPE zeroedd_request_deadlines_total counter")
	fmt.Fprintf(w, "zeroedd_request_deadlines_total %d\n", m.deadlines.Load())

	fmt.Fprintln(w, "# HELP zeroedd_fit_seconds Fit-phase wall-clock across model fits.")
	fmt.Fprintln(w, "# TYPE zeroedd_fit_seconds summary")
	fmt.Fprintf(w, "zeroedd_fit_seconds_sum %g\n", time.Duration(m.fitNanos.Load()).Seconds())
	fmt.Fprintf(w, "zeroedd_fit_seconds_count %d\n", m.fitRuns.Load())

	m.stageMu.Lock()
	if len(m.stageOrder) > 0 {
		fmt.Fprintln(w, "# HELP zeroedd_fit_stage_seconds Fit wall-clock by pipeline stage, cumulative across fits.")
		fmt.Fprintln(w, "# TYPE zeroedd_fit_stage_seconds counter")
		for _, name := range m.stageOrder {
			fmt.Fprintf(w, "zeroedd_fit_stage_seconds{stage=%q} %g\n", name, m.stageSeconds[name])
		}
	}
	m.stageMu.Unlock()

	fmt.Fprintln(w, "# HELP zeroedd_score_seconds Score-phase wall-clock across model scoring calls.")
	fmt.Fprintln(w, "# TYPE zeroedd_score_seconds summary")
	fmt.Fprintf(w, "zeroedd_score_seconds_sum %g\n", time.Duration(m.scoreNanos.Load()).Seconds())
	fmt.Fprintf(w, "zeroedd_score_seconds_count %d\n", m.scoreRuns.Load())

	fmt.Fprintln(w, "# HELP zeroedd_stream_requests_total Streaming detection requests accepted.")
	fmt.Fprintln(w, "# TYPE zeroedd_stream_requests_total counter")
	fmt.Fprintf(w, "zeroedd_stream_requests_total %d\n", m.streamRequests.Load())

	fmt.Fprintln(w, "# HELP zeroedd_stream_rows_total Rows scored through streaming detection.")
	fmt.Fprintln(w, "# TYPE zeroedd_stream_rows_total counter")
	fmt.Fprintf(w, "zeroedd_stream_rows_total %d\n", m.streamRows.Load())

	fmt.Fprintln(w, "# HELP zeroedd_mapped_uploads_total Uploads whose header needed schema mapping (permutation or superset of the model schema).")
	fmt.Fprintln(w, "# TYPE zeroedd_mapped_uploads_total counter")
	fmt.Fprintf(w, "zeroedd_mapped_uploads_total %d\n", m.mappedUploads.Load())

	fmt.Fprintln(w, "# HELP zeroedd_dropped_columns_total Extra upload columns dropped by schema mapping.")
	fmt.Fprintln(w, "# TYPE zeroedd_dropped_columns_total counter")
	fmt.Fprintf(w, "zeroedd_dropped_columns_total %d\n", m.droppedColumns.Load())

	fmt.Fprintln(w, "# HELP zeroedd_repair_seconds Repair-phase wall-clock across served repair calls (excludes the scoring pass).")
	fmt.Fprintln(w, "# TYPE zeroedd_repair_seconds summary")
	fmt.Fprintf(w, "zeroedd_repair_seconds_sum %g\n", time.Duration(m.repairNanos.Load()).Seconds())
	fmt.Fprintf(w, "zeroedd_repair_seconds_count %d\n", m.repairRuns.Load())

	fmt.Fprintln(w, "# HELP zeroedd_repaired_cells_total Cells changed by served repair calls.")
	fmt.Fprintln(w, "# TYPE zeroedd_repaired_cells_total counter")
	fmt.Fprintf(w, "zeroedd_repaired_cells_total %d\n", m.repairedCells.Load())

	fmt.Fprintln(w, "# HELP zeroedd_model_refits_total Drift-triggered background refits, by outcome.")
	fmt.Fprintln(w, "# TYPE zeroedd_model_refits_total counter")
	fmt.Fprintf(w, "zeroedd_model_refits_total{outcome=\"started\"} %d\n", m.refitsStarted.Load())
	fmt.Fprintf(w, "zeroedd_model_refits_total{outcome=\"swapped\"} %d\n", m.refitsSwapped.Load())
	fmt.Fprintf(w, "zeroedd_model_refits_total{outcome=\"failed\"} %d\n", m.refitFailures.Load())

	if len(models) > 0 {
		fmt.Fprintln(w, "# HELP zeroedd_model_version Current hot-swapped version of each registered model.")
		fmt.Fprintln(w, "# TYPE zeroedd_model_version gauge")
		for _, g := range models {
			fmt.Fprintf(w, "zeroedd_model_version{model=%q} %d\n", g.id, g.version)
		}
	}
	var live []modelGauge // the models a stream has touched
	for _, g := range models {
		if g.streaming {
			live = append(live, g)
		}
	}
	if len(live) == 0 {
		return
	}
	fmt.Fprintln(w, "# HELP zeroedd_model_refit_breaker Per-model refit circuit breaker: 1 when open (refits disabled until a successful install).")
	fmt.Fprintln(w, "# TYPE zeroedd_model_refit_breaker gauge")
	for _, g := range live {
		open := 0
		if g.health.BreakerOpen {
			open = 1
		}
		fmt.Fprintf(w, "zeroedd_model_refit_breaker{model=%q} %d\n", g.id, open)
	}
	fmt.Fprintln(w, "# HELP zeroedd_model_refit_consecutive_failures Consecutive failed refits since the last successful install (drives exponential backoff).")
	fmt.Fprintln(w, "# TYPE zeroedd_model_refit_consecutive_failures gauge")
	for _, g := range live {
		fmt.Fprintf(w, "zeroedd_model_refit_consecutive_failures{model=%q} %d\n", g.id, g.health.ConsecutiveFailures)
	}
	fmt.Fprintln(w, "# HELP zeroedd_model_drift Streaming drift gauges per model: unseen-value rate and distribution shift against the fit-time snapshot.")
	fmt.Fprintln(w, "# TYPE zeroedd_model_drift gauge")
	for _, g := range live {
		fmt.Fprintf(w, "zeroedd_model_drift{model=%q,gauge=\"unseen_rate\"} %g\n", g.id, g.drift.UnseenRate)
		fmt.Fprintf(w, "zeroedd_model_drift{model=%q,gauge=\"shift\"} %g\n", g.id, g.drift.Shift)
		fmt.Fprintf(w, "zeroedd_model_drift{model=%q,gauge=\"rows\"} %d\n", g.id, g.drift.Rows)
	}
}
