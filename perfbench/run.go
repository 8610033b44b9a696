package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"repro/internal/eval"
	"repro/internal/llm"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/zeroed"
)

// runner holds one run: its inputs, the in-process reference answers, the
// served instance under test, and the operation tally.
type runner struct {
	opt      options
	in       *inputs
	modelDir string
	client   *http.Client

	// Set up by prepare: one library fit per source, which every served
	// answer on that source's bodies is checked against, and the fresh
	// bodies' answers under the first source's model, which streams use.
	models    []fitted
	freshWant []expect

	srv   *served
	setup []float64 // seconds per set-up repetition
	fits  int       // served fits so far; fit n refits source n%len(models)

	sent   int        // score/repair requests so far: the place in the mix
	bodies *rand.Rand // draws each score/repair request's warm body

	attempted, failed int64
	errs              []string
}

// fitted is one source's library fit: its artifact, which every served
// instance restores under id, and the reference answers on its bodies.
type fitted struct {
	id       string
	secs     float64
	tree     *obs.Node // span tree of the fit (first source, traced runs)
	usage    llm.Usage
	f1       float64
	artifact []byte
	ref      *zeroed.Model // decoded artifact: the in-process oracle
	fitWant  expect
	warmWant []expect
}

// fitConfig mirrors the served fit's defaults (serve.parseParams) so the
// library fit and every served fit at the same seed are bit-identical.
func fitConfig(seed int64) (zeroed.Config, error) {
	p, ok := llm.ProfileByName("Qwen2.5-72b")
	if !ok {
		return zeroed.Config{}, fmt.Errorf("llm profile missing")
	}
	return zeroed.Config{LabelRate: 0.05, CorrK: 2, Seed: seed, Profile: p}, nil
}

// record counts one operation and keeps the first few failures.
func (r *runner) record(err error) {
	r.attempted++
	if err == nil {
		return
	}
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

// prepare fits a model in-process on every source, one after the other,
// writes each artifact where the served instances restore it from, and
// computes the reference answer for every body the run sends.
func (r *runner) prepare() error {
	if err := os.MkdirAll(r.modelDir, 0o755); err != nil {
		return err
	}
	r.models = make([]fitted, len(r.in.sources))
	for k := range r.models {
		if err := r.fit(k); err != nil {
			return err
		}
	}
	for _, b := range r.in.fresh {
		e, err := expectFor(r.models[0].ref, b.ds, false)
		if err != nil {
			return err
		}
		r.freshWant = append(r.freshWant, e)
	}
	return nil
}

// fit fits source k's model, persists its artifact, and computes the
// reference answers on the source's bodies.
func (r *runner) fit(k int) error {
	src, f := &r.in.sources[k], &r.models[k]
	f.id = fmt.Sprintf("m-%06d", k+1)
	cfg, err := fitConfig(src.seed)
	if err != nil {
		return err
	}
	ctx := context.Background()
	trace := r.opt.trace && k == 0
	if trace {
		obs.SetEnabled(true)
	}
	ctx, tr := obs.NewTrace(ctx, "perfbench.fit")
	start := time.Now()
	m, err := zeroed.New(cfg).FitContext(ctx, src.fit.ds)
	f.secs = time.Since(start).Seconds()
	tr.Finish()
	if trace {
		obs.SetEnabled(false)
		f.tree = tr.Tree()
	}
	if err != nil {
		return fmt.Errorf("library fit: %w", err)
	}
	if m.Degenerate() {
		return fmt.Errorf("library fit is degenerate at seed %d", src.seed)
	}
	f.usage = m.Info().Usage
	if f.artifact, err = model.Encode(m); err != nil {
		return err
	}
	if err := model.WriteFileAtomic(filepath.Join(r.modelDir, f.id+".zedm"), f.artifact); err != nil {
		return err
	}
	if f.ref, err = model.Decode(f.artifact); err != nil {
		return err
	}
	// Detect ≡ Score(Fit) is the library's pinned contract, so these
	// verdicts are a library Detect's at the same seed.
	if f.fitWant, err = expectFor(f.ref, src.fit.ds, false); err != nil {
		return err
	}
	f.f1 = eval.Compute(f.fitWant.mask, src.truth).F1
	for _, b := range src.warm {
		e, err := expectFor(f.ref, b.ds, true)
		if err != nil {
			return err
		}
		f.warmWant = append(f.warmWant, e)
	}
	return nil
}

// release drops what only prepare and the traced probes read: the
// reference models, the parsed datasets and the verdict masks. The
// benchmark shares its heap with the server under test, and every GC
// cycle marks all of it, so an untraced run keeps only the bytes it sends
// and the answers it checks them against.
func (r *runner) release() {
	for k := range r.models {
		f, src := &r.models[k], &r.in.sources[k]
		f.ref = nil
		f.fitWant.mask = nil
		src.truth = nil
		src.fit.ds = nil
		for i := range src.warm {
			src.warm[i].ds = nil
			f.warmWant[i].mask = nil
		}
	}
	for i := range r.in.fresh {
		r.in.fresh[i].ds = nil
		r.freshWant[i].mask = nil
	}
}

// setUp starts a served instance on the artifacts and warms it, reps
// times, stopping each before starting the next, and returns the last one
// still running. Each repetition times the service start (artifact
// restores included) and the warm-up requests that fill each model's warm
// caches and the stream scorer.
func (r *runner) setUp(reps int) (*served, error) {
	var last *served
	for i := 0; i < reps; i++ {
		if last != nil {
			last.stop()
		}
		runtime.GC()
		start := time.Now()
		s, err := startServed(r.modelDir)
		if err != nil {
			return nil, err
		}
		r.warmUp(s)
		r.setup = append(r.setup, time.Since(start).Seconds())
		last = s
	}
	return last, nil
}

// warmUp sends one request of each kind the workloads send, to every
// model.
func (r *runner) warmUp(s *served) {
	var buf bytes.Buffer
	for k, f := range r.models {
		w, want := r.in.sources[k].warm[0], &f.warmWant[0]
		_, err := scoreBody(r.client, s, f.id, mediaCSV, w.csv, &buf)
		if err == nil {
			err = want.checkScore(buf.Bytes())
		}
		r.record(err)
		_, err = scoreBody(r.client, s, f.id, mediaNDJSON, w.ndjson, &buf)
		if err == nil {
			err = want.checkScore(buf.Bytes())
		}
		r.record(err)
		_, err = repairBody(r.client, s, f.id, w.csv, &buf)
		if err == nil {
			err = want.checkRepair(buf.Bytes())
		}
		r.record(err)
	}
	head := r.opt.scale.chunkRows
	f := &r.models[0]
	_, err := streamBody(r.client, s, f.id, firstLines(r.in.sources[0].fit.ndjson, head), head, f.fitWant.rows[:head])
	r.record(err)
}

// samples are one phase's raw measurements.
type samples struct {
	fits       []float64   // s per fit
	scoreCSV   []float64   // ms per CSV score request
	scoreND    []float64   // ms per NDJSON score request
	repair     [][]float64 // ms per repair request, by source
	reqs       int         // score and repair requests sent
	rates      []float64   // requests per second, one per reqWindow requests
	streamRows int
	streamSecs float64
	gaps       []float64 // ms between consecutive chunk outputs
}

func (s *samples) add(o samples) {
	s.fits = append(s.fits, o.fits...)
	s.scoreCSV = append(s.scoreCSV, o.scoreCSV...)
	s.scoreND = append(s.scoreND, o.scoreND...)
	for k, xs := range o.repair {
		s.repair = appendAt(s.repair, k, xs...)
	}
	s.reqs += o.reqs
	s.rates = append(s.rates, o.rates...)
	s.streamRows += o.streamRows
	s.streamSecs += o.streamSecs
	s.gaps = append(s.gaps, o.gaps...)
}

// appendAt appends xs to the k-th series, adding empty series up to k.
func appendAt(series [][]float64, k int, xs ...float64) [][]float64 {
	for len(series) <= k {
		series = append(series, nil)
	}
	series[k] = append(series[k], xs...)
	return series
}

// fitPhase is the fit workload's closed loop: one client posts a fit
// table, the sources' in turn, checks the fitted model, and deletes it.
// It makes one fit, and another only while the last one's time would
// still end within d, so a round of about one fit's length holds one fit
// rather than sometimes two. Only the POST is timed.
func (r *runner) fitPhase(d time.Duration) samples {
	var s samples
	start := time.Now()
	var last time.Duration
	for first := true; first || time.Since(start)+last < d; first = false {
		began := time.Now()
		k := r.fits % len(r.models)
		r.fits++
		src := &r.in.sources[k]
		id, dur, err := fitModel(r.client, r.srv, src.seed, src.fit.csv)
		if err == nil {
			s.fits = append(s.fits, dur.Seconds())
			err = r.checkFit(id, k)
			if derr := deleteModel(r.client, r.srv, id); err == nil {
				err = derr
			}
		}
		r.record(err)
		last = time.Since(began)
	}
	return s
}

// checkFit compares a served fit of source k with the library fit: the
// same token spend (read from the persisted artifact) and the same
// verdicts on the fit table, hence the same F1.
func (r *runner) checkFit(id string, k int) error {
	m, err := model.LoadFile(filepath.Join(r.modelDir, id+".zedm"))
	if err != nil {
		return fmt.Errorf("fit %s: %w", id, err)
	}
	want := &r.models[k]
	if got := m.Info().Usage; got != want.usage {
		return fmt.Errorf("fit %s: llm usage %+v, library fit %+v", id, got, want.usage)
	}
	var buf bytes.Buffer
	if _, err := scoreBody(r.client, r.srv, id, mediaCSV, r.in.sources[k].fit.csv, &buf); err != nil {
		return err
	}
	if err := want.fitWant.checkScore(buf.Bytes()); err != nil {
		return fmt.Errorf("fit %s: %w", id, err)
	}
	return nil
}

// reqWindow is how many consecutive score/repair requests one throughput
// sample spans. req_per_s is the median of these samples, so a burst of
// host load moves a few windows rather than the whole figure.
const reqWindow = 8

// mixCycle is the score loop's request group: three scores, then a
// repair. The scores alternate CSV and NDJSON, and each group goes to the
// next source's model, so every mixCycle*len(models) consecutive requests
// hold the same mix (for two sources, exactly one reqWindow). The seed
// draws only the warm body of each request. A drawn mix would repeat its
// first draws' repair share in every round and move req_per_s with it.
const mixCycle = 4

// scorePhase is the score_warm closed loop: one caller, waiting for each
// reply, sends the mix of score and repair requests over the warm bodies
// of every source, each to its source's model. It runs for d, or for ops
// requests when d is zero.
func (r *runner) scorePhase(d time.Duration, ops int) samples {
	var s samples
	var buf bytes.Buffer
	start := time.Now()
	window := start
	for d > 0 && time.Since(start) < d || d == 0 && s.reqs < ops {
		n := r.sent
		r.sent++
		k := n / mixCycle % len(r.models)
		i := r.bodies.Intn(len(r.in.sources[k].warm))
		b, want, id := r.in.sources[k].warm[i], &r.models[k].warmWant[i], r.models[k].id
		if n%mixCycle == mixCycle-1 {
			dur, err := repairBody(r.client, r.srv, id, b.csv, &buf)
			if err == nil {
				s.repair = appendAt(s.repair, k, ms(dur))
				err = want.checkRepair(buf.Bytes())
			}
			r.record(err)
		} else {
			media, payload, lat := mediaCSV, b.csv, &s.scoreCSV
			if scores := n - n/mixCycle; scores%2 == 1 {
				media, payload, lat = mediaNDJSON, b.ndjson, &s.scoreND
			}
			dur, err := scoreBody(r.client, r.srv, id, media, payload, &buf)
			if err == nil {
				*lat = append(*lat, ms(dur))
				err = want.checkScore(buf.Bytes())
			}
			r.record(err)
		}
		s.reqs++
		if s.reqs%reqWindow == 0 {
			now := time.Now()
			s.rates = append(s.rates, reqWindow/now.Sub(window).Seconds())
			window = now
		}
	}
	return s
}

// streamPhase is the stream_fresh loop: one client streams the fresh
// bodies in turn to the first source's model, each request waiting for
// its last verdict line, for d, or for n requests when d is zero.
func (r *runner) streamPhase(d time.Duration, n int) samples {
	var s samples
	start := time.Now()
	for k := 0; d > 0 && (k == 0 || time.Since(start) < d) || d == 0 && k < n; k++ {
		i := k % len(r.in.fresh)
		res, err := streamBody(r.client, r.srv, r.models[0].id, r.in.fresh[i].ndjson, r.opt.scale.chunkRows, r.freshWant[i].rows)
		if err == nil {
			s.streamRows += res.rows
			s.streamSecs += res.dur.Seconds()
			s.gaps = append(s.gaps, res.gaps...)
		}
		r.record(err)
	}
	return s
}

// peakMemory samples the Go runtime's resident estimate (mapped memory
// minus heap returned to the OS) every 5 ms until the returned stop is
// called, which reports the peak in MB.
func peakMemory() (stop func() float64) {
	debug.FreeOSMemory()
	ms := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	read := func() float64 {
		metrics.Read(ms)
		return float64(ms[0].Value.Uint64()-ms[1].Value.Uint64()) / 1e6
	}
	done := make(chan struct{})
	peak := make(chan float64)
	go func() {
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		hi := read()
		for {
			select {
			case <-done:
				peak <- max(hi, read())
				return
			case <-t.C:
				hi = max(hi, read())
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// firstLines returns the first n lines of an NDJSON body.
func firstLines(b []byte, n int) []byte {
	end := 0
	for i := 0; i < n; i++ {
		j := bytes.IndexByte(b[end:], '\n')
		if j < 0 {
			return b
		}
		end += j + 1
	}
	return b[:end]
}
