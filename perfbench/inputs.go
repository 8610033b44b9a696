package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/internal/datasets"
	"repro/internal/table"
)

// scale sizes one run's inputs. The defaults are the benchmark's; tests
// shrink them so a smoke run of every workload finishes in seconds.
type scale struct {
	fitRows     int // rows of each fitted Hospital table
	warmBodies  int // rotations of each fit table served by score_warm
	freshBodies int // distinct fresh NDJSON bodies streamed by stream_fresh
	freshRows   int // rows per fresh body
	chunkRows   int // stream chunk size (the server's default)
}

var defaultScale = scale{fitRows: 1000, warmBodies: 4, freshBodies: 2, freshRows: 4096, chunkRows: 256}

// freshSeedOffset derives the fresh-row generator seed from the run seed:
// the same generator under another seed yields rows whose cells mostly hold
// values seen at fit, with the rest unseen.
const freshSeedOffset = 1_000_003

// numSources is how many independently seeded fit tables a run serves,
// each with its own model.
const numSources = 2

// sourceSeedStride separates the seeds of a run's sources: source k of run
// seed s is generated, and its model fitted, at seed s + k*sourceSeedStride.
const sourceSeedStride = 7_000_001

// body is one request payload in both wire formats, with the dataset the
// server will ingest from it.
type body struct {
	csv    []byte
	ndjson []byte
	ds     *table.Dataset
}

// source is one Hospital table a run fits a model on. Which cells a model
// flags, and so what a repair costs, varies from one table and fit to the
// next (about 47 against 35 ms at two seeds); a run that serves several
// sources measures their mix rather than one draw.
type source struct {
	seed  int64
	truth [][]bool // ground-truth error mask of the fit table
	fit   body     // the dirty fit table
	warm  []body   // rotations of the fit table: every value seen at fit
}

// inputs is everything a run sends. Only these bytes reach the server.
type inputs struct {
	sources []source
	fresh   []body // rows from another seed of the same generator
}

// makeInputs builds a run's inputs from its seed alone.
func makeInputs(seed int64, sc scale) (*inputs, error) {
	in := &inputs{}
	for k := 0; k < numSources; k++ {
		src, err := makeSource(seed+int64(k)*sourceSeedStride, sc)
		if err != nil {
			return nil, err
		}
		in.sources = append(in.sources, src)
	}
	f := datasets.Hospital(sc.freshBodies*sc.freshRows, seed+freshSeedOffset).Dirty
	for k := 0; k < sc.freshBodies; k++ {
		fb, err := makeBody(f, k*sc.freshRows, sc.freshRows)
		if err != nil {
			return nil, err
		}
		in.fresh = append(in.fresh, fb)
	}
	return in, nil
}

// makeSource generates one fit table and its warm rotations.
func makeSource(seed int64, sc scale) (source, error) {
	b := datasets.Hospital(sc.fitRows, seed)
	truth, err := b.Mask()
	if err != nil {
		return source{}, err
	}
	src := source{seed: seed, truth: truth}
	if src.fit, err = makeBody(b.Dirty, 0, b.Dirty.NumRows()); err != nil {
		return source{}, err
	}
	rng := rand.New(rand.NewSource(seed))
	n := b.Dirty.NumRows()
	for k := 0; k < sc.warmBodies; k++ {
		wb, err := makeBody(b.Dirty, rng.Intn(n), n)
		if err != nil {
			return source{}, err
		}
		src.warm = append(src.warm, wb)
	}
	return src, nil
}

// makeBody renders n rows of d starting at row off, wrapping around.
func makeBody(d *table.Dataset, off, n int) (body, error) {
	rows := make([]int, n)
	for i := range rows {
		rows[i] = (off + i) % d.NumRows()
	}
	return render(d, rows)
}

// datasetName is the name bodies are ingested under, in-process and by the
// served fit (its ?name=): the simulated LLM seeds its streams with it.
const datasetName = "bench"

// render writes the chosen rows of d as CSV (with header) and as NDJSON
// objects keyed by attribute, and ingests the CSV back as the dataset the
// server will see.
func render(d *table.Dataset, rows []int) (body, error) {
	sub := table.New(d.Name, d.Attrs)
	for _, i := range rows {
		sub.MustAppendRow(d.Row(i))
	}
	var csv bytes.Buffer
	if err := sub.WriteCSV(&csv); err != nil {
		return body{}, err
	}
	keys := make([][]byte, len(d.Attrs))
	for j, a := range d.Attrs {
		keys[j], _ = json.Marshal(a) // strings always marshal
	}
	var nd bytes.Buffer
	for i := 0; i < sub.NumRows(); i++ {
		nd.WriteByte('{')
		for j := range d.Attrs {
			if j > 0 {
				nd.WriteByte(',')
			}
			nd.Write(keys[j])
			nd.WriteByte(':')
			v, _ := json.Marshal(sub.Value(i, j))
			nd.Write(v)
		}
		nd.WriteString("}\n")
	}
	ds, err := table.Read(datasetName, table.FormatCSV, bytes.NewReader(csv.Bytes()))
	if err != nil {
		return body{}, fmt.Errorf("re-reading rendered body: %w", err)
	}
	return body{csv: csv.Bytes(), ndjson: nd.Bytes(), ds: ds}, nil
}
