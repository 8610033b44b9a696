package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"

	"repro/internal/table"
	"repro/internal/zeroed"
)

// The one model-request path. Score, repair and stream share its front half
// (withModel), score and repair its whole-body step (scoreUpload), and fit,
// score, repair and stream its panic containment (contain) and error
// mapping (runFailure).

// withModel is the front half every model-bound route (score, repair,
// stream) shares. The model is pinned for the duration of the request: a
// concurrent DELETE makes the id 404 for new requests but never tears this
// one — the captured entry keeps scoring and its artifacts stay on disk
// until the pin drains. A degenerate model has no trained detector (its
// fallback labels are positional in the fitting data and meaningless for
// arbitrary uploads), so it is a 409.
func (s *Server) withModel(h func(w http.ResponseWriter, r *http.Request, e *regEntry)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		e, ok := s.reg.acquire(id)
		if !ok {
			writeErr(w, r, http.StatusNotFound, "not_found", "unknown model id")
			return
		}
		defer s.reg.release(id)
		if e.m.Degenerate() {
			writeErr(w, r, http.StatusConflict, "degenerate_model",
				"model was fitted on single-class data and cannot score new rows; refit on richer data")
			return
		}
		h(w, r, e)
	}
}

// scored is one whole-body scoring run: the ingested upload, the upload
// columns the header mapping dropped, and the verdicts.
type scored struct {
	ds      *table.Dataset
	dropped []string
	res     *zeroed.Result
}

// scoreUpload is the whole-body step score and repair share: ingest the
// bounded CSV or NDJSON body onto the model schema (a permutation or
// superset of it; missing columns are a typed 400), score it on the shared
// pool with no retraining, and count the run. On failure it has written the
// error response and returns false.
func (s *Server) scoreUpload(w http.ResponseWriter, r *http.Request, e *regEntry, name string) (scored, bool) {
	ds, dropped, ok := s.ingestUpload(w, r, name, e.m.Attrs())
	if !ok {
		return scored{}, false
	}
	var res *zeroed.Result
	err := s.contain(r, "scoring", func() (err error) {
		res, err = e.m.ScoreOn(r.Context(), s.mgr.pool, ds)
		return err
	})
	if err != nil {
		s.writeRunErr(w, r, opScore, err)
		return scored{}, false
	}
	s.met.scoreRuns.Add(1)
	s.met.scoreNanos.Add(int64(res.Runtime))
	return scored{ds: ds, dropped: dropped, res: res}, true
}

// handleModelScore scores a CSV or NDJSON body synchronously against a
// registered model — the cheap phase only, no retraining.
func (s *Server) handleModelScore(w http.ResponseWriter, r *http.Request, e *regEntry) {
	sc, ok := s.scoreUpload(w, r, e, "score")
	if !ok {
		return
	}
	out := ScoreResult{
		ModelID:     e.id,
		Attrs:       e.m.Attrs(),
		Rows:        len(sc.res.Pred),
		Flagged:     countFlagged(sc.res.Pred),
		Pred:        sc.res.Pred,
		DroppedCols: sc.dropped,
		ScoreMS:     sc.res.Runtime.Milliseconds(),
	}
	if r.URL.Query().Get("scores") != "0" {
		out.Scores = sc.res.Scores
	}
	if wantTrace(r) {
		out.Trace = traceTree(r)
	}
	writeJSON(w, http.StatusOK, out)
}

// countFlagged counts the cells predicted erroneous.
func countFlagged(pred [][]bool) int {
	n := 0
	for _, row := range pred {
		for _, p := range row {
			if p {
				n++
			}
		}
	}
	return n
}

// errInternalPanic marks a recovered server-side panic: the client gets a
// generic 500, the value and stack stay in the server log (they are
// internals, not API responses).
var errInternalPanic = errors.New("serve: internal panic")

// internalMsg is the generic message of every "internal" error envelope.
const internalMsg = "internal error"

// contain runs one model operation, turning a panic into errInternalPanic
// and logging its value and stack. The pool re-raises a worker's panic on
// the goroutine that fanned out, so this one recover covers every worker.
func (s *Server) contain(r *http.Request, op string, fn func() error) (err error) {
	defer func() {
		if rec := recover(); rec != nil {
			s.log.Error(op+" panicked", "request_id", reqIDFrom(r.Context()),
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			err = errInternalPanic
		}
	}()
	return fn()
}

// runOp names a model operation for runFailure: the code of its 400, the
// noun of its internal-error message, and the subject of its deadline
// message.
type runOp struct{ code, noun, subject string }

var (
	opFit    = runOp{"fit_failed", "fit", "request"}
	opScore  = runOp{"score_failed", "scoring", "request"}
	opStream = runOp{"score_failed", "scoring", "stream"}
)

// runFailure maps a failed model operation to the error a client sees: a
// typed 503 when the request deadline passed (a capacity signal — the work
// was sound, the box was slow — never a generic 500), nothing (status 0)
// when the client is gone, a generic 500 after a recovered panic, and a 400
// carrying the error otherwise.
func (s *Server) runFailure(r *http.Request, op runOp, err error) (int, apiError) {
	switch {
	case errors.Is(r.Context().Err(), context.DeadlineExceeded):
		s.met.deadlines.Add(1)
		return http.StatusServiceUnavailable, apiErrorFor(r, "deadline",
			fmt.Sprintf("%s exceeded the %s server-side deadline", op.subject, s.cfg.RequestTimeout))
	case r.Context().Err() != nil:
		return 0, apiError{}
	case errors.Is(err, errInternalPanic):
		return http.StatusInternalServerError, apiErrorFor(r, "internal", internalMsg+" during "+op.noun)
	}
	return http.StatusBadRequest, apiErrorFor(r, op.code, err.Error())
}

// retryAfterDeadline hints how long a deadline-exceeded client should wait
// before retrying, in seconds.
const retryAfterDeadline = 2

// writeRunErr writes runFailure's response; a deadline carries a
// Retry-After hint.
func (s *Server) writeRunErr(w http.ResponseWriter, r *http.Request, op runOp, err error) {
	status, e := s.runFailure(r, op, err)
	if status == 0 {
		return
	}
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterDeadline))
	}
	writeJSON(w, status, map[string]apiError{"error": e})
}
