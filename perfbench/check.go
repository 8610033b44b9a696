package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/repair"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// expect is the in-process answer for one body: what every served
// response on that body must carry, byte for byte.
type expect struct {
	mask    [][]bool // Model.Score's verdict mask
	pred    []byte   // json.Marshal of mask
	rows    [][]byte // json.Marshal of each row's verdicts (stream lines)
	flagged int
	changes []byte // json.Marshal of the repair change log
}

// expectFor scores ds in-process with the reference model and, when
// withRepair, repairs it as the served repair endpoint does.
func expectFor(m *zeroed.Model, ds *table.Dataset, withRepair bool) (expect, error) {
	res, err := m.ScoreContext(context.Background(), ds)
	if err != nil {
		return expect{}, err
	}
	e := expect{mask: res.Pred}
	if e.pred, err = json.Marshal(res.Pred); err != nil {
		return expect{}, err
	}
	for _, row := range res.Pred {
		b, err := json.Marshal(row)
		if err != nil {
			return expect{}, err
		}
		e.rows = append(e.rows, b)
		for _, p := range row {
			if p {
				e.flagged++
			}
		}
	}
	if withRepair {
		_, fixes := repair.New(repair.Config{}).Apply(ds, res.Pred)
		changes := make([]serve.RepairChange, 0, len(fixes))
		for _, f := range fixes {
			changes = append(changes, serve.RepairChange{
				Row: f.Row, Col: f.Col, Attr: ds.Attrs[f.Col],
				Old: f.Old, New: f.New, Strategy: string(f.Strategy),
			})
		}
		if e.changes, err = json.Marshal(changes); err != nil {
			return expect{}, err
		}
	}
	return e, nil
}

// checkScore verifies a score response's verdict mask and flagged count.
func (e *expect) checkScore(resp []byte) error {
	if !bytes.HasPrefix(fieldAfter(resp, `"pred":`), e.pred) {
		return fmt.Errorf("score verdicts differ from Model.Score")
	}
	return e.checkFlagged(resp)
}

// checkRepair verifies a repair response's flagged count and change log.
// The change log is a function of the verdict mask, so a wrong mask shows
// here as well.
func (e *expect) checkRepair(resp []byte) error {
	if !bytes.HasPrefix(fieldAfter(resp, `"changes":`), e.changes) {
		return fmt.Errorf("repair change log differs from repair.Apply on Model.Score verdicts")
	}
	return e.checkFlagged(resp)
}

func (e *expect) checkFlagged(resp []byte) error {
	if !bytes.HasPrefix(fieldAfter(resp, `"flagged":`), []byte(strconv.Itoa(e.flagged)+",")) {
		return fmt.Errorf("flagged count differs from Model.Score (want %d)", e.flagged)
	}
	return nil
}
