package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef is one reported metric. End-to-end metrics carry the bound by
// which a change may worsen their median; per-layer metrics name the
// end-to-end metric, and the workload, they should move.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
	moves  string
}

// endToEnd lists what a zeroedd user sees. Every workload reports every
// one; README.md says which workload each is native to.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "fit_s", unit: "s", better: "lower", bound: 0.25},
	{name: "llm_tokens", unit: "count", better: "lower", bound: 0.1},
	{name: "f1", unit: "ratio", better: "higher", bound: 0.25},
	{name: "score_csv_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "score_ndjson_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "score_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "repair_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "req_per_s", unit: "1/s", better: "higher", bound: 0.25},
	{name: "stream_rows_per_s", unit: "rows/s", better: "higher", bound: 0.25},
	{name: "chunk_gap_p50_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "chunk_gap_p90_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.2},
}

// perLayer lists the traced run's metrics, one or more per module.
var perLayer = []metricDef{
	{name: "table.csv_ingest_mb_s", unit: "MB/s", better: "higher", moves: "score_csv_p50_ms on score_warm"},
	{name: "table.ndjson_ingest_mb_s", unit: "MB/s", better: "higher", moves: "stream_rows_per_s on stream_fresh; score_ndjson_p50_ms on score_warm"},
	{name: "zeroed.fit.extractor_s", unit: "s", better: "lower", moves: "fit_s on fit"},
	{name: "zeroed.fit.criteria_s", unit: "s", better: "lower", moves: "fit_s on fit"},
	{name: "zeroed.fit.sample_label_s", unit: "s", better: "lower", moves: "fit_s on fit"},
	{name: "zeroed.fit.traindata_s", unit: "s", better: "lower", moves: "fit_s on fit"},
	{name: "zeroed.fit.matrix_s", unit: "s", better: "lower", moves: "fit_s on fit"},
	{name: "zeroed.fit.train_s", unit: "s", better: "lower", moves: "fit_s on fit"},
	{name: "zeroed.fit.alloc_mb", unit: "MB", better: "lower", moves: "fit_s and peak_rss_mb on fit"},
	{name: "zeroed.score.seen.bind_ms", unit: "ms", better: "lower", moves: "score_csv_p50_ms and score_ndjson_p50_ms on score_warm"},
	{name: "zeroed.score.seen.shards_ms", unit: "ms", better: "lower", moves: "score_csv_p50_ms and score_ndjson_p50_ms on score_warm"},
	{name: "zeroed.score.fresh.bind_ms", unit: "ms", better: "lower", moves: "stream_rows_per_s on stream_fresh"},
	{name: "zeroed.score.fresh.shards_ms", unit: "ms", better: "lower", moves: "stream_rows_per_s on stream_fresh"},
	{name: "zeroed.stream.chunk_ms", unit: "ms", better: "lower", moves: "chunk_gap_p50_ms on stream_fresh"},
	{name: "llm.input_tokens", unit: "count", better: "lower", moves: "llm_tokens on fit"},
	{name: "llm.output_tokens", unit: "count", better: "lower", moves: "llm_tokens on fit"},
	{name: "model.encode_ms", unit: "ms", better: "lower", moves: "fit_s on fit"},
	{name: "model.persist_ms", unit: "ms", better: "lower", moves: "fit_s on fit"},
	{name: "model.decode_ms", unit: "ms", better: "lower", moves: "setup_s on every workload"},
	{name: "model.artifact_bytes", unit: "bytes", better: "lower", moves: "setup_s on every workload"},
	{name: "repair.apply_ms", unit: "ms", better: "lower", moves: "repair_p50_ms on score_warm"},
	{name: "serve.residual_ms", unit: "ms", better: "lower", moves: "score_csv_p50_ms on score_warm"},
	{name: "serve.response_bytes", unit: "bytes", better: "lower", moves: "score_csv_p50_ms and score_ndjson_p50_ms on score_warm"},
	{name: "obs.overhead_pct", unit: "%", better: "lower", moves: "every end-to-end latency of its workload when tracing is on"},
}

// measured is one metric's value and how many samples it summarizes.
type measured struct {
	value float64
	n     int
}

// mean of xs (NaN when empty).
func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics, as
// numpy.percentile does by default.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// environment identifies the machine and build a result came from.
// Results from different machines are never comparable.
type environment struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	PGO        string `json:"pgo"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

// describeEnv reads the machine and build facts. root is the repository
// checkout, whose Go sources are hashed: the checkout need not be a git
// repository, so the hash stands in when no VCS revision was stamped.
func describeEnv(root string) environment {
	e := environment{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		PGO:        "off",
		Commit:     "unknown",
		SourceHash: sourceHash(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := ""
		for _, s := range bi.Settings {
			switch s.Key {
			case "-pgo":
				if s.Value != "" {
					e.PGO = "on (" + filepath.Base(s.Value) + ")"
				}
			case "vcs.revision":
				e.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if e.Commit != "unknown" {
			e.Commit += dirty
		}
	}
	return e
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceHash digests every go.mod and .go file under root, skipping
// hidden and build directories, in path order.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if d.Name() != "go.mod" && !strings.HasSuffix(d.Name(), ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(path) + "\x00"))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
