// Command perfbench is the repository's benchmark: it drives zeroedd's
// handler (serve.New(...).Handler()) over real loopback HTTP from one
// process, checks every served answer against the library computed
// in-process, and prints one JSON result line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fit|score_warm|stream_fresh \
//	    --seed N --seconds S --trace 0|1
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 reports the per-layer metrics: the workload's phase alternates
// tracing off and on (for obs.overhead_pct), then every layer is probed
// in-process. perfbench/README.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// options is one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    scale
	setups   int // set-up repetitions (untraced runs)
	extraOps int // score/repair requests of a complementary score phase
	extraStr int // stream requests of a complementary stream phase
	workDir  string
	root     string // repository checkout, hashed into the environment
}

// workload is one traffic mix. main runs the mix itself for a duration.
// extra runs a short share (ops score/repair requests, streams stream
// requests) of the other kinds with one client, so that every workload
// reports every end-to-end metric. An untraced run alternates rounds of
// main with shares of extra, each on its own instance, so both sample the
// whole run. primary is the latency series the traced/untraced comparison
// uses.
type workload struct {
	name    string
	why     string
	rounds  int
	main    func(r *runner, d time.Duration) samples
	extra   func(r *runner, ops, streams int) samples
	primary func(s *samples) []float64
}

var workloads = []workload{
	{
		name:   "fit",
		why:    "one client fits a 1000-row Hospital table over HTTP in a closed loop; the paper's cost, where fit stages dominate",
		rounds: 2, // a round of --seconds/2 holds one fit, of each source in turn
		main:   (*runner).fitPhase,
		extra: func(r *runner, ops, streams int) samples {
			s := r.scorePhase(0, ops)
			s.add(r.streamPhase(0, streams))
			return s
		},
		primary: func(s *samples) []float64 { return s.fits },
	},
	{
		name:    "score_warm",
		why:     "one closed-loop client scores (CSV/NDJSON) and repairs bodies whose values were all seen at fit; ingest, encoding and HTTP dominate",
		rounds:  5,
		main:    func(r *runner, d time.Duration) samples { return r.scorePhase(d, 0) },
		extra:   func(r *runner, ops, streams int) samples { return r.streamPhase(0, streams) },
		primary: func(s *samples) []float64 { return s.scoreCSV },
	},
	{
		name:    "stream_fresh",
		why:     "one client streams NDJSON rows from another seed (some values unseen at fit); featurize and MLP work dominate, warm caches mostly miss",
		rounds:  5,
		main:    func(r *runner, d time.Duration) samples { return r.streamPhase(d, 0) },
		extra:   func(r *runner, ops, streams int) samples { return r.scorePhase(0, ops) },
		primary: func(s *samples) []float64 { return s.gaps },
	},
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "", "workload name: fit, score_warm or stream_fresh")
	flag.Int64Var(&opt.seed, "seed", 1, "input seed")
	flag.Float64Var(&opt.seconds, "seconds", 20, "measured seconds of the workload's phase")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	opt.trace = *trace == 1
	opt.scale = defaultScale
	opt.setups, opt.extraOps, opt.extraStr = 7, 240, 10
	opt.root = "."
	opt.workDir = filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if *trace != 0 && *trace != 1 || opt.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	if err := execute(opt, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// execute runs one invocation and prints its report, the result line last.
func execute(opt options, w io.Writer) error {
	res, table, err := run(opt)
	if err != nil {
		return err
	}
	env, _ := json.Marshal(describeEnv(opt.root))
	fmt.Fprintf(w, "env %s\n", env)
	names := make([]string, 0, len(table))
	for n := range table {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-30s %14.4f %-7s n=%d\n", n, table[n].value, res.Metrics[n].Unit, table[n].n)
	}
	fmt.Fprintf(w, "  %-30s %14.4f %-7s n=%d\n", "error_rate", float64(res.Failed)/float64(res.Attempted), "ratio", res.Attempted)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// run measures one workload and returns the result line and, for the
// report, every metric with its sample count.
func run(opt options) (result, map[string]measured, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == opt.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return result{}, nil, fmt.Errorf("unknown workload %q", opt.workload)
	}
	if err := os.MkdirAll(opt.workDir, 0o755); err != nil {
		return result{}, nil, err
	}
	defer os.RemoveAll(opt.workDir)
	in, err := makeInputs(opt.seed, opt.scale)
	if err != nil {
		return result{}, nil, err
	}
	r := &runner{
		opt:      opt,
		in:       in,
		modelDir: filepath.Join(opt.workDir, "models"),
		client:   newClient(),
		bodies:   rand.New(rand.NewSource(opt.seed * 7919)),
	}
	defer r.client.CloseIdleConnections()
	if err := r.prepare(); err != nil {
		return result{}, nil, err
	}
	d := time.Duration(opt.seconds * float64(time.Second))
	out := make(map[string]measured)
	if opt.trace {
		if r.srv, err = r.setUp(1); err != nil {
			return result{}, nil, err
		}
		defer r.srv.stop()
		// Alternate tracing off and on in four blocks, so drift over the
		// run falls on both sides of the comparison.
		var off, on samples
		for b := 0; b < 4; b++ {
			tracing := b%2 == 1
			obs.SetEnabled(tracing)
			s := wl.main(r, d/4)
			if tracing {
				on.add(s)
			} else {
				off.add(s)
			}
		}
		obs.SetEnabled(false)
		tOn, tOff := wl.primary(&on), wl.primary(&off)
		out["obs.overhead_pct"] = measured{100 * (median(tOn)/median(tOff) - 1), len(tOn) + len(tOff)}
		if err := r.probeLayers(out); err != nil {
			return result{}, nil, err
		}
	} else {
		r.release()
		// The extra shares run on an instance of their own, and the main
		// rounds on a fresh one, so neither inherits the other's state
		// (a stream scorer's accumulated rows, a grown heap).
		extraSrv, err := r.setUp(opt.setups - 1)
		if err != nil {
			return result{}, nil, err
		}
		defer extraSrv.stop()
		mainSrv, err := r.setUp(1)
		if err != nil {
			return result{}, nil, err
		}
		defer mainSrv.stop()
		var s samples
		peak := 0.0
		for k := 0; k < wl.rounds; k++ {
			r.srv = mainSrv
			runtime.GC()
			stop := peakMemory()
			s.add(wl.main(r, d/time.Duration(wl.rounds)))
			peak = max(peak, stop())
			r.srv = extraSrv
			s.add(wl.extra(r, opt.extraOps/wl.rounds, max(1, opt.extraStr/wl.rounds)))
		}
		out["peak_rss_mb"] = measured{peak, wl.rounds}
		if len(s.fits) == 0 {
			for _, f := range r.models {
				s.fits = append(s.fits, f.secs)
			}
		}
		endToEndMetrics(r, &s, out)
	}

	res := result{
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]value, len(out)),
	}
	res.Correct = res.Failed == 0
	for _, e := range r.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed operation:", e)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	for _, def := range defs {
		m, ok := out[def.name]
		if !ok {
			return result{}, nil, fmt.Errorf("metric %s was not measured", def.name)
		}
		res.Metrics[def.name] = value{m.value, def.unit}
	}
	return res, out, nil
}

// endToEndMetrics summarizes a run's samples.
func endToEndMetrics(r *runner, s *samples, out map[string]measured) {
	out["setup_s"] = measured{median(r.setup), len(r.setup)}
	out["fit_s"] = measured{median(s.fits), len(s.fits)}
	var tokens, f1 []float64
	for _, f := range r.models {
		tokens = append(tokens, float64(f.usage.Total()))
		f1 = append(f1, f.f1)
	}
	out["llm_tokens"] = measured{mean(tokens), len(tokens)}
	out["f1"] = measured{mean(f1), len(f1)}
	out["score_csv_p50_ms"] = measured{median(s.scoreCSV), len(s.scoreCSV)}
	out["score_ndjson_p50_ms"] = measured{median(s.scoreND), len(s.scoreND)}
	all := append(append([]float64(nil), s.scoreCSV...), s.scoreND...)
	out["score_p90_ms"] = measured{quantile(all, 0.9), len(all)}
	// A repair's cost follows how many cells the model flags, which
	// differs between sources; a median pooled over two such clusters
	// would fall in the gap between them, so each source gets its own.
	var repair []float64
	reps := 0
	for _, xs := range s.repair {
		if len(xs) > 0 {
			repair = append(repair, median(xs))
			reps += len(xs)
		}
	}
	out["repair_p50_ms"] = measured{mean(repair), reps}
	out["req_per_s"] = measured{median(s.rates), s.reqs}
	out["stream_rows_per_s"] = measured{float64(s.streamRows) / s.streamSecs, s.streamRows}
	out["chunk_gap_p50_ms"] = measured{median(s.gaps), len(s.gaps)}
	out["chunk_gap_p90_ms"] = measured{quantile(s.gaps, 0.9), len(s.gaps)}
}
