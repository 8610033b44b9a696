package serve

import (
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/repair"
)

// The served detect→repair loop: POST /v1/models/{id}/repair scores an
// uploaded table against a registered model — the cheap phase only, no
// refit — then applies the repair strategies (FD-implied values, typo
// correction, numeric medians, dominant modes) to the flagged cells and
// returns the corrected table with a cell-level change log. The same
// artifact and the same upload bytes always produce the same corrected
// table and change log, bit-for-bit identical to running `zeroed
// -model-in ... -repair` on the same inputs.

// RepairChange is one cell-level entry of the change log. Field names
// match the JSON lines `zeroed -repair-log` emits.
type RepairChange struct {
	Row      int    `json:"row"`
	Col      int    `json:"col"`
	Attr     string `json:"attr"`
	Old      string `json:"old"`
	New      string `json:"new"`
	Strategy string `json:"strategy"`
}

// RepairResult is the wire form of one served detect→repair call.
type RepairResult struct {
	ModelID string   `json:"model_id"`
	Attrs   []string `json:"attrs"`
	Rows    int      `json:"rows"`
	// Flagged counts cells the detector predicted erroneous; Repaired
	// counts the subset the repairer changed (repair never invents data,
	// so cells without confident evidence stay untouched).
	Flagged  int            `json:"flagged"`
	Repaired int            `json:"repaired"`
	Changes  []RepairChange `json:"changes"`
	// Table is the corrected table in schema order, header excluded.
	// Suppressed by ?table=0 when the caller only wants the change log.
	Table [][]string `json:"table,omitempty"`
	// DroppedCols lists upload columns outside the model schema that the
	// header mapping dropped before scoring.
	DroppedCols []string `json:"dropped_cols,omitempty"`
	ScoreMS     int64    `json:"score_ms"`
	RepairMS    int64    `json:"repair_ms"`
	// Trace is the request's span tree, embedded when the client asked for
	// it with ?trace=1.
	Trace *obs.Node `json:"trace,omitempty"`
}

// handleModelRepair scores an uploaded CSV or NDJSON body against a
// registered model exactly like score — same upload mapping, same pin, no
// refit — and repairs the flagged cells.
func (s *Server) handleModelRepair(w http.ResponseWriter, r *http.Request, e *regEntry) {
	sc, ok := s.scoreUpload(w, r, e, "repair")
	if !ok {
		return
	}
	start := time.Now()
	_, repSpan := obs.Start(r.Context(), "repair.apply")
	fixed, fixes := repair.New(repair.Config{}).Apply(sc.ds, sc.res.Pred)
	repSpan.SetInt("changes", int64(len(fixes)))
	repSpan.End()
	repairDur := time.Since(start)
	s.met.repairRuns.Add(1)
	s.met.repairNanos.Add(int64(repairDur))
	s.met.repairedCells.Add(int64(len(fixes)))

	attrs := e.m.Attrs()
	out := RepairResult{
		ModelID:     e.id,
		Attrs:       attrs,
		Rows:        sc.ds.NumRows(),
		Flagged:     countFlagged(sc.res.Pred),
		Repaired:    len(fixes),
		Changes:     make([]RepairChange, 0, len(fixes)),
		DroppedCols: sc.dropped,
		ScoreMS:     sc.res.Runtime.Milliseconds(),
		RepairMS:    repairDur.Milliseconds(),
	}
	for _, f := range fixes {
		out.Changes = append(out.Changes, RepairChange{
			Row: f.Row, Col: f.Col, Attr: attrs[f.Col],
			Old: f.Old, New: f.New, Strategy: string(f.Strategy),
		})
	}
	if r.URL.Query().Get("table") != "0" {
		out.Table = make([][]string, fixed.NumRows())
		for i := range out.Table {
			row := make([]string, fixed.NumCols())
			for j := range row {
				row[j] = fixed.Value(i, j)
			}
			out.Table[i] = row
		}
	}
	if wantTrace(r) {
		out.Trace = traceTree(r)
	}
	writeJSON(w, http.StatusOK, out)
}
