package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/repair"
	"repro/internal/table"
	"repro/internal/zeroed"
)

// The traced run's per-layer probes. Each layer is timed from outside, by
// calling its public functions in-process on this run's inputs; where the
// program already records spans (fit stages, score bind and shards, stream
// chunks) the probe reads them from an obs.NewTrace tree instead. The
// probes add no spans to the program.

// fitStages are the fit pipeline's stage spans, in order.
var fitStages = []string{"extractor", "criteria", "sample_label", "traindata", "matrix", "train"}

// probeReps is how many times each cheap layer call is repeated; the
// probes report medians.
const probeReps = 9

// timeReps calls fn reps times and returns each call's wall time in ms.
func timeReps(reps int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// traced runs fn under a fresh trace and returns the finished span tree.
func traced(fn func(ctx context.Context) error) (*obs.Node, error) {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	ctx, tr := obs.NewTrace(context.Background(), "perfbench.probe")
	err := fn(ctx)
	tr.Finish()
	return tr.Tree(), err
}

// spanMS sums the durations of every span named name in the tree.
func spanMS(n *obs.Node, name string) float64 {
	if n == nil {
		return 0
	}
	var sum float64
	if n.Name == name {
		sum += float64(n.DurUS) / 1e3
	}
	for _, c := range n.Children {
		sum += spanMS(c, name)
	}
	return sum
}

// rowsOf returns rows [lo, lo+n) of d as raw records.
func rowsOf(d *table.Dataset, lo, n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = d.Row(lo + i)
	}
	return rows
}

// datasetOf binds raw records into a fresh dataset.
func datasetOf(attrs []string, rows [][]string) *table.Dataset {
	d := table.New("probe", attrs)
	for _, r := range rows {
		d.MustAppendRow(r)
	}
	return d
}

// probeLayers measures every per-layer metric except obs.overhead_pct,
// which the traced/untraced blocks of the workload's own phase give, on
// the first source's model and bodies.
func (r *runner) probeLayers(out map[string]measured) error {
	f := &r.models[0]
	put := func(name string, xs []float64) { out[name] = measured{median(xs), len(xs)} }
	one := func(name string, v float64) { out[name] = measured{v, 1} }

	// model: decode (the restore step of set-up), encode, persist.
	var pm *zeroed.Model
	xs, err := timeReps(probeReps, func() (err error) { pm, err = model.Decode(f.artifact); return err })
	if err != nil {
		return err
	}
	put("model.decode_ms", xs)
	one("model.artifact_bytes", float64(len(f.artifact)))
	var data []byte
	if xs, err = timeReps(probeReps, func() (err error) { data, err = model.Encode(pm); return err }); err != nil {
		return err
	}
	put("model.encode_ms", xs)
	path := filepath.Join(filepath.Dir(r.modelDir), "probe.zedm")
	if xs, err = timeReps(probeReps, func() error { return model.WriteFileAtomic(path, data) }); err != nil {
		return err
	}
	put("model.persist_ms", xs)

	// zeroed fit stages and llm spend, from the traced library fit.
	for _, st := range fitStages {
		one("zeroed.fit."+st+"_s", spanMS(f.tree, "fit."+st)/1e3)
	}
	if n := f.tree.Find("fit"); n != nil {
		one("zeroed.fit.alloc_mb", float64(n.AllocBytes)/1e6)
	}
	one("llm.input_tokens", float64(f.usage.InputTokens))
	one("llm.output_tokens", float64(f.usage.OutputTokens))

	// table ingest, on the body the residual below is taken on.
	w := r.in.sources[0].warm[0]
	ingest := func(format string, b []byte) ([]float64, error) {
		return timeReps(probeReps, func() error {
			_, err := table.Read("probe", format, bytes.NewReader(b))
			return err
		})
	}
	csvMS, err := ingest(table.FormatCSV, w.csv)
	if err != nil {
		return err
	}
	out["table.csv_ingest_mb_s"] = measured{float64(len(w.csv)) / 1e6 / (median(csvMS) / 1e3), len(csvMS)}
	ndMS, err := ingest(table.FormatNDJSON, w.ndjson)
	if err != nil {
		return err
	}
	out["table.ndjson_ingest_mb_s"] = measured{float64(len(w.ndjson)) / 1e6 / (median(ndMS) / 1e3), len(ndMS)}

	// zeroed score on seen rows: warm the probe model as set-up warms the
	// served one, time Model.Score untraced, then read its spans traced.
	ctx := context.Background()
	for _, b := range r.in.sources[0].warm {
		if _, err := pm.ScoreContext(ctx, b.ds); err != nil {
			return err
		}
	}
	scoreMS, err := timeReps(probeReps, func() error { _, err := pm.ScoreContext(ctx, w.ds); return err })
	if err != nil {
		return err
	}
	if err := r.scoreSpans(out, "seen", probeReps, func(int) *table.Dataset { return w.ds }, pm); err != nil {
		return err
	}

	// zeroed score on fresh rows: a distinct slice each repetition, so no
	// repetition finds the previous one's rows in the warm cache.
	fresh := r.in.fresh[0].ds
	slice := min(1000, fresh.NumRows()/3)
	if err := r.scoreSpans(out, "fresh", 3, func(i int) *table.Dataset {
		return datasetOf(fresh.Attrs, rowsOf(fresh, i*slice, slice))
	}, pm); err != nil {
		return err
	}

	// zeroed stream: chunks of fresh rows through a stream scorer.
	ss, err := zeroed.NewStreamScorer(pm, zeroed.StreamConfig{})
	if err != nil {
		return err
	}
	pool := zeroed.NewPool(0)
	other := r.in.fresh[len(r.in.fresh)-1].ds
	chunk := r.opt.scale.chunkRows
	var chunks []float64
	for i := 0; i < 8 && (i+1)*chunk <= other.NumRows(); i++ {
		tree, err := traced(func(ctx context.Context) error {
			_, _, err := ss.ScoreChunk(ctx, pool, rowsOf(other, i*chunk, chunk))
			return err
		})
		if err != nil {
			return err
		}
		chunks = append(chunks, spanMS(tree, "stream.chunk"))
	}
	put("zeroed.stream.chunk_ms", chunks)

	// repair on the seen body's reference verdicts.
	if xs, err = timeReps(probeReps, func() error {
		repair.New(repair.Config{}).Apply(w.ds, f.warmWant[0].mask)
		return nil
	}); err != nil {
		return err
	}
	put("repair.apply_ms", xs)

	// serve: what a served score costs beyond ingest and Model.Score on
	// the same body, with tracing off, one request at a time.
	var buf bytes.Buffer
	var served []float64
	for i := 0; i < 2*probeReps; i++ {
		dur, err := scoreBody(r.client, r.srv, f.id, mediaCSV, w.csv, &buf)
		if err == nil {
			err = f.warmWant[0].checkScore(buf.Bytes())
		}
		r.record(err)
		if err != nil {
			return fmt.Errorf("serve probe: %w", err)
		}
		served = append(served, ms(dur))
	}
	out["serve.residual_ms"] = measured{median(served) - median(csvMS) - median(scoreMS), len(served)}
	one("serve.response_bytes", float64(buf.Len()))
	return nil
}

// scoreSpans scores reps datasets under traces and reports the medians of
// the score.bind span and of the summed score.shard spans (the shards' busy
// time) as zeroed.score.<kind>.{bind,shards}_ms.
func (r *runner) scoreSpans(out map[string]measured, kind string, reps int, ds func(int) *table.Dataset, m *zeroed.Model) error {
	var bind, shards []float64
	for i := 0; i < reps; i++ {
		d := ds(i)
		tree, err := traced(func(ctx context.Context) error {
			_, err := m.ScoreContext(ctx, d)
			return err
		})
		if err != nil {
			return err
		}
		bind = append(bind, spanMS(tree, "score.bind"))
		shards = append(shards, spanMS(tree, "score.shard"))
	}
	out["zeroed.score."+kind+".bind_ms"] = measured{median(bind), reps}
	out["zeroed.score."+kind+".shards_ms"] = measured{median(shards), reps}
	return nil
}
