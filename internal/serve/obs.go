package serve

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/faultpoint"
	"repro/internal/obs"
)

// The serve-layer observability spine: a request-ID + tracing + RED-metrics
// middleware wrapped around the mux, per-request span trees exported through
// ?trace=1 envelopes and GET /v1/jobs/{id}/trace, slow-request Chrome traces
// retained in a ring (browsable at GET /debug/traces on the gated debug
// listener), and structured access/panic logging through log/slog.

// requestIDHeader is the correlation header: honored when the client sends
// a well-formed value, generated otherwise, echoed on every response and
// carried in every error envelope and log line.
const requestIDHeader = "X-Request-ID"

type requestIDKey struct{}

// ridCounter numbers generated request IDs within the process.
var ridCounter atomic.Int64

// ridEpoch distinguishes processes, so IDs from a restarted server do not
// collide in aggregated logs. Set once at init.
var ridEpoch = func() string {
	return fmt.Sprintf("%x-%x", os.Getpid(), time.Now().UnixNano()&0xffffff)
}()

// requestID resolves the request's correlation ID: a client-supplied
// X-Request-ID survives when it is printable and bounded (anything else
// would let hostile bytes into logs and headers), otherwise a fresh ID is
// generated.
func requestID(r *http.Request) string {
	if id := r.Header.Get(requestIDHeader); validRequestID(id) {
		return id
	}
	return fmt.Sprintf("r-%s-%06d", ridEpoch, ridCounter.Add(1))
}

// validRequestID accepts 1..128 bytes of [A-Za-z0-9._-].
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// reqIDFrom returns the request ID stored by the middleware, or "".
func reqIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// statusWriter captures the response status for the access log and RED
// metrics. Unwrap exposes the underlying writer so http.ResponseController
// (flush, full-duplex on the stream endpoint) keeps working through it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// routeLabel resolves the registered mux pattern for a request before
// serving it (r.Pattern is only populated on the request the matched
// handler sees, not on the middleware's). Unmatched requests — 404s, 405s —
// share one label so hostile paths cannot mint unbounded metric series.
func (s *Server) routeLabel(r *http.Request) string {
	if _, pattern := s.mux.Handler(r); pattern != "" {
		return pattern
	}
	return "unmatched"
}

// serveHTTP is the middleware around the mux: request-ID resolution and
// echo, an always-on per-request trace rooted at the route, the request
// timeout, last-resort panic recovery (stack through slog, structured 500),
// RED metrics, the access log line, and slow-request trace retention.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := requestID(r)
	w.Header().Set(requestIDHeader, rid)
	route := s.routeLabel(r)

	ctx := context.WithValue(r.Context(), requestIDKey{}, rid)
	ctx, tr := obs.NewTrace(ctx, route)
	tr.Root().SetAttr("request_id", rid)
	if s.cfg.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.RequestTimeout)
		defer cancel()
	}
	r = r.WithContext(ctx)
	sw := &statusWriter{ResponseWriter: w}

	defer func() {
		if rec := recover(); rec != nil {
			s.log.Error("panic recovered",
				"request_id", rid, "route", route,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			writeErr(sw, r, http.StatusInternalServerError, "internal", internalMsg)
		}
		code := sw.status
		if code == 0 {
			code = http.StatusOK // handler wrote nothing (client gone)
		}
		dur := time.Since(start)
		s.met.red.observe(route, code, dur)
		s.log.Info("request",
			"request_id", rid, "route", route, "code", code,
			"dur_ms", float64(dur.Microseconds())/1e3)
		// Job submissions adopt their trace (it finishes with the job);
		// every other trace finishes with the response.
		if tr != nil && !tr.Adopted() {
			tr.Finish()
			s.retainTrace(tr, route, rid, dur)
		}
	}()

	s.mux.ServeHTTP(sw, r)
}

// retainTrace keeps a finished trace when it crossed the slow threshold:
// into the ring behind GET /debug/traces, and as a Chrome trace_event file
// under Config.TraceDir when set.
func (s *Server) retainTrace(tr *obs.Trace, route, rid string, dur time.Duration) {
	if tr == nil || dur < s.cfg.TraceSlow {
		return
	}
	data, spans := tr.ChromeJSON()
	ret := &obs.Retained{
		Name:      route,
		RequestID: rid,
		DurMS:     float64(dur.Microseconds()) / 1e3,
		Spans:     spans,
		Chrome:    data,
	}
	seq := s.ring.Add(ret)
	if s.cfg.TraceDir != "" {
		if err := os.MkdirAll(s.cfg.TraceDir, 0o755); err == nil {
			path := filepath.Join(s.cfg.TraceDir, fmt.Sprintf("trace-%06d.json", seq))
			if werr := os.WriteFile(path, data, 0o644); werr != nil {
				s.log.Warn("trace dump failed", "request_id", rid, "path", path, "err", werr)
			}
		} else {
			s.log.Warn("trace dir unavailable", "dir", s.cfg.TraceDir, "err", err)
		}
	}
}

// wantTrace reports whether a synchronous endpoint should embed its span
// tree in the response envelope.
func wantTrace(r *http.Request) bool {
	return r.URL.Query().Get("trace") == "1"
}

// traceTree snapshots the request's trace for a ?trace=1 envelope. The
// request's own spans are all ended by the time the handler encodes its
// response; only the root is still open, reported at its elapsed-so-far
// duration.
func traceTree(r *http.Request) *obs.Node {
	return obs.TraceFromContext(r.Context()).Tree()
}

// handleJobTrace serves the span tree of a finished job: the submit
// request's trace, adopted by the job and finished when the job settled.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.mgr.get(r.PathValue("id"))
	if !ok {
		writeErr(w, r, http.StatusNotFound, "not_found", "unknown job id")
		return
	}
	j.mu.Lock()
	state, tree := j.state, j.traceTree
	id := j.id
	j.mu.Unlock()
	switch state {
	case JobQueued, JobRunning:
		writeErr(w, r, http.StatusConflict, "not_done", fmt.Sprintf("job is %s", state))
		return
	}
	if tree == nil {
		writeErr(w, r, http.StatusNotFound, "no_trace", "job ran without tracing enabled")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "state": state, "trace": tree})
}

// handleReadyz is the readiness sibling of /healthz: ready means the model
// directory (when configured) is writable — a fit that cannot persist is
// not a server you want traffic on — and reports the loaded-model count.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	models := s.reg.count()
	if s.cfg.ModelDir != "" {
		if err := probeWritable(s.cfg.ModelDir); err != nil {
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{
				"status": "unready", "models": models, "error": err.Error(),
			})
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready", "models": models})
}

// probeWritable verifies a directory accepts writes by creating and
// removing a probe file (the suffix avoids both the artifact scanner and
// the stranded-temp sweeper).
func probeWritable(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(dir, ".readyz-probe-*")
	if err != nil {
		return err
	}
	name := f.Name()
	f.Close()
	return os.Remove(name)
}

// DebugHandler returns the gated debug surface served on -debug-addr: the
// full net/http/pprof suite, the fault-injection registry, and the retained
// slow-request traces. It is a separate handler by design — operators bind
// it to localhost or an internal interface, never the service port.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/failpoints", s.handleFailpoints)
	mux.HandleFunc("GET /debug/traces", s.handleTraceList)
	mux.HandleFunc("GET /debug/traces/{seq}", s.handleTraceGet)
	return mux
}

// handleFailpoints reports every registered fault-injection point with its
// evaluation and hit counters — the live view of the faultpoint registry.
func (s *Server) handleFailpoints(w http.ResponseWriter, r *http.Request) {
	type fp struct {
		Name  string `json:"name"`
		Evals int64  `json:"evals"`
		Hits  int64  `json:"hits"`
	}
	names := faultpoint.List()
	out := make([]fp, 0, len(names))
	for _, name := range names {
		out = append(out, fp{Name: name, Evals: faultpoint.Evals(name), Hits: faultpoint.Hits(name)})
	}
	writeJSON(w, http.StatusOK, map[string]any{"failpoints": out})
}

// handleTraceList lists the retained slow-request traces, newest first.
func (s *Server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.ring.List()})
}

// handleTraceGet serves one retained trace as Chrome trace_event JSON,
// ready for chrome://tracing or Perfetto.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.Atoi(r.PathValue("seq"))
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_param", "trace seq must be an integer")
		return
	}
	ret, ok := s.ring.Get(seq)
	if !ok {
		writeErr(w, r, http.StatusNotFound, "not_found", "trace evicted or never retained")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ret.Chrome)
}

// buildMeta resolves the build-info labels once: the module version (VCS
// revision when the version is a devel placeholder), the Go toolchain, and
// whether the binary was profile-guided-optimized (-pgo build setting).
type buildMeta struct {
	version   string
	goVersion string
	pgo       bool
}

var readBuildMeta = func() buildMeta {
	bm := buildMeta{version: "unknown", goVersion: ""}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return bm
	}
	bm.goVersion = info.GoVersion
	if v := info.Main.Version; v != "" && v != "(devel)" {
		bm.version = v
	}
	var revision string
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			revision = s.Value
		case "-pgo":
			bm.pgo = s.Value != "" && s.Value != "off"
		}
	}
	if bm.version == "unknown" && revision != "" {
		if len(revision) > 12 {
			revision = revision[:12]
		}
		bm.version = revision
	}
	return bm
}()

// newLogger resolves the service logger: the configured one, or text to
// stderr.
func newLogger(cfg Config) *slog.Logger {
	if cfg.Logger != nil {
		return cfg.Logger
	}
	return slog.New(slog.NewTextHandler(os.Stderr, nil))
}
