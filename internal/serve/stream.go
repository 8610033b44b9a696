package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// Streaming detection: POST /v1/models/{id}/stream accepts a chunked CSV or
// NDJSON body and answers with one JSON line per input row, scored against
// the registered model through its warm score cache. Verdicts are
// chunk-invariant — the same rows split at any transport boundaries produce
// byte-identical verdict lines — because scoring binds a fresh
// dictionary-seeded dataset per chunk (see zeroed.StreamScorer).
//
// Every streamed cell also feeds the model's drift gauges (unseen-value
// rate and score-distribution shift against the fit-time frequency
// snapshot, exported as zeroedd_model_drift). When a gauge trips the
// configured threshold, a background refit trains a successor on the rows
// accumulated so far (bounded by Config.MaxRows), persists it as a new
// versioned artifact, and hot-swaps it into the registry: in-flight chunks
// finish on the old model, later chunks score on the successor, and the old
// artifact stays on disk for rollback.

// streamTable holds one StreamScorer per model id, created lazily on the
// first stream request and dropped on DELETE. All concurrent streams of one
// model share the scorer, so their rows pool into one drift estimate and
// one refit accumulator.
type streamTable struct {
	mu sync.Mutex
	m  map[string]*zeroed.StreamScorer
}

// scorerFor returns the model's stream scorer, creating it on first use.
func (s *Server) scorerFor(id string, e *regEntry) (*zeroed.StreamScorer, error) {
	s.streams.mu.Lock()
	defer s.streams.mu.Unlock()
	if s.streams.m == nil {
		s.streams.m = make(map[string]*zeroed.StreamScorer)
	}
	if ss, ok := s.streams.m[id]; ok {
		return ss, nil
	}
	ss, err := zeroed.NewStreamScorer(e.m, zeroed.StreamConfig{
		DriftThreshold:    s.cfg.DriftThreshold,
		DriftMinRows:      s.cfg.DriftMinRows,
		MaxAccumRows:      s.cfg.MaxRows,
		RefitBackoffBase:  s.cfg.RefitBackoff,
		RefitBreakerAfter: s.cfg.RefitBreakerAfter,
	})
	if err != nil {
		return nil, err
	}
	s.streams.m[id] = ss
	return ss, nil
}

func (s *Server) dropScorer(id string) {
	s.streams.mu.Lock()
	delete(s.streams.m, id)
	s.streams.mu.Unlock()
}

// streamReadings snapshots every live stream scorer's drift gauges and
// refit-failure containment state for /metrics, under one lock so both
// families always cover the same models.
func (s *Server) streamReadings() map[string]modelGauge {
	s.streams.mu.Lock()
	defer s.streams.mu.Unlock()
	out := make(map[string]modelGauge, len(s.streams.m))
	for id, ss := range s.streams.m {
		drift, _ := ss.Gauges()
		out[id] = modelGauge{streaming: true, drift: drift, health: ss.RefitHealth()}
	}
	return out
}

// streamLine is one NDJSON verdict frame: the verdict for input row Row,
// scored by model version Version. Scores round-trip through JSON
// bit-exactly, so equal rows always render equal bytes.
type streamLine struct {
	Row     int       `json:"row"`
	Version int       `json:"version"`
	Pred    []bool    `json:"pred"`
	Scores  []float64 `json:"scores,omitempty"`
}

// streamSummary is the final NDJSON frame of a stream response.
type streamSummary struct {
	Done    bool              `json:"done"`
	Model   string            `json:"model"`
	Version int               `json:"version"`
	Rows    int               `json:"rows"`
	Drift   stats.DriftGauges `json:"drift"`
	Refits  int               `json:"refits,omitempty"`
}

// handleModelStream scores a chunked CSV or NDJSON body row-by-row against
// a registered model, writing one JSON line per row as chunks arrive. The
// body decodes through the shared table.RowSource layer: a CSV header may
// be a permutation or superset of the model's schema (table.MapSource
// projects it), NDJSON lines bind directly to the schema.
func (s *Server) handleModelStream(w http.ResponseWriter, r *http.Request, e *regEntry) {
	id := e.id
	ss, err := s.scorerFor(id, e)
	if err != nil {
		writeErr(w, r, http.StatusInternalServerError, "stream_failed", err.Error())
		return
	}
	chunkRows := s.cfg.StreamChunkRows
	if v := r.URL.Query().Get("chunk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 || n > s.cfg.MaxRows {
			writeErr(w, r, http.StatusBadRequest, "bad_param",
				fmt.Sprintf("bad chunk %q: must be an int in [1, %d]", v, s.cfg.MaxRows))
			return
		}
		chunkRows = n
	}
	raw, _, err := uploadSource(r, r.Body, e.m.Attrs())
	if err != nil {
		writeErr(w, r, http.StatusBadRequest, "bad_stream", err.Error())
		return
	}
	src := &bodySource{RowSource: raw}
	withScores := r.URL.Query().Get("scores") != "0"

	// Verdicts are written while the body is still being read, so the
	// HTTP/1.x server must not close the unread request body at the first
	// response write. Best-effort: HTTP/2 is always full-duplex.
	rc := http.NewResponseController(w)
	_ = rc.EnableFullDuplex()

	// From here on the response is a 200 NDJSON stream; failures surface as
	// a terminal {"error": ...} line, not a status rewrite.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	inBand := func(e apiError) { _ = enc.Encode(map[string]apiError{"error": e}) }
	s.met.streamRequests.Add(1)

	refits := 0
	emit := func(start int, res *zeroed.Result, st zeroed.ChunkStatus) error {
		for i := range res.Pred {
			line := streamLine{Row: start + i, Version: st.Version, Pred: res.Pred[i]}
			if withScores {
				line.Scores = res.Scores[i]
			}
			if err := enc.Encode(line); err != nil {
				return errStopStream // client gone
			}
		}
		s.met.streamRows.Add(int64(len(res.Pred)))
		_ = rc.Flush()
		if st.ShouldRefit && ss.BeginRefit() {
			refits++
			s.met.refitsStarted.Add(1)
			_ = enc.Encode(map[string]any{"event": "refit", "model": id, "version": st.Version})
			go s.runRefit(id, ss)
		}
		// A long-lived stream ends gracefully when its model is deleted:
		// the chunk that was in flight finished above, nothing tears.
		if _, ok := s.reg.get(id); !ok && !src.done {
			inBand(apiErrorFor(r, "model_deleted", "model was deleted mid-stream"))
			return errStopStream
		}
		return nil
	}
	var rows int
	var st zeroed.ChunkStatus
	err = s.contain(r, "stream scoring", func() (err error) {
		rows, st, err = ss.ScoreSource(r.Context(), s.mgr.pool, src, chunkRows, emit)
		return err
	})
	var bad badBody
	switch {
	case errors.Is(err, errStopStream):
	case errors.As(err, &bad):
		inBand(apiErrorFor(r, "bad_stream", bad.Error()))
	case err != nil:
		if status, e := s.runFailure(r, opStream, err); status != 0 {
			inBand(e)
		}
	default:
		drift, version := st.Drift, st.Version
		if rows == 0 {
			drift, version = ss.Gauges()
		}
		_ = enc.Encode(streamSummary{Done: true, Model: id, Version: version, Rows: rows, Drift: drift, Refits: refits})
	}
}

// errStopStream ends a stream whose response is already complete: the
// client is gone, or a terminal line was written.
var errStopStream = errors.New("serve: stream stopped")

// bodySource tags the stream body's read errors as badBody, telling a
// malformed or truncated body apart from a scoring failure, and records
// when the body has ended.
type bodySource struct {
	table.RowSource
	done bool
}

type badBody struct{ error }

func (b *bodySource) Next(max int) ([][]string, error) {
	rows, err := b.RowSource.Next(max)
	b.done = err != nil
	if err != nil && err != io.EOF {
		err = badBody{err}
	}
	return rows, err
}

// runRefit is the background half of a drift trip: fit a successor on the
// accumulated stream (bounded by the fit semaphore, like client-driven
// fits), persist it as the next artifact version, and hot-swap registry and
// scorer. Any failure aborts the refit and keeps the old model serving; the
// drift gauges keep accumulating so a later chunk can trip again.
func (s *Server) runRefit(id string, ss *zeroed.StreamScorer) {
	ok := false
	defer func() {
		if rec := recover(); rec != nil {
			s.log.Error("refit panicked", "model", id,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
		}
		if !ok {
			s.met.refitFailures.Add(1)
			ss.AbortRefit()
		}
	}()
	s.reg.fitSem <- struct{}{}
	defer func() { <-s.reg.fitSem }()
	m2, err := ss.Refit(context.Background(), s.mgr.pool)
	if err != nil {
		s.log.Error("refit failed", "model", id, "err", err)
		return
	}
	data, err := model.Encode(m2)
	if err != nil {
		s.log.Error("refit failed to encode", "model", id, "err", err)
		return
	}
	version := m2.Lineage().Version
	if s.cfg.ModelDir != "" {
		err := fpRefitPersist.Eval()
		if err == nil {
			err = s.persistArtifact(artifactFile(id, version), data)
		}
		if err != nil {
			s.log.Error("refit failed to persist", "model", id, "err", err)
			// A post-commit failure may have left the successor artifact on
			// disk without a swap; remove it so restart recovers the version
			// that was actually serving.
			_ = os.Remove(filepath.Join(s.cfg.ModelDir, artifactFile(id, version)))
			return
		}
	}
	if _, swapped := s.reg.swap(id, m2, len(data)); !swapped {
		// Deleted while the refit ran: discard the successor and its
		// artifact; the DELETE already reaped (or doomed) the older files.
		if s.cfg.ModelDir != "" {
			_ = os.Remove(filepath.Join(s.cfg.ModelDir, artifactFile(id, version)))
		}
		return
	}
	if err := ss.Install(m2); err != nil {
		s.log.Error("refit failed to install", "model", id, "err", err)
		return
	}
	ok = true
	s.met.refitsSwapped.Add(1)
	s.log.Info("refit swapped", "model", id, "version", version)
	if s.cfg.ModelDir != "" {
		s.reg.writeManifest(s.met)
	}
}
