package zeroed

// Tracing must be a pure observer: spans record wall time and alloc deltas
// out of band and never touch RNG streams, dedup caches, or any computed
// value. These tests pin that contract bit-for-bit, the same way the
// deterministic-parallelism suite pins worker/shard invariance.

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// TestTraceOnOffBitIdentical runs the same detection with tracing disabled
// and enabled across the worker×shard grid and requires identical verdicts
// and identical float64 score bits.
func TestTraceOnOffBitIdentical(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)

	b := detBenches()[0]
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 4} {
			name := fmt.Sprintf("w%d_s%d", workers, shards)
			t.Run(name, func(t *testing.T) {
				det := New(detConfig(workers, shards))

				obs.SetEnabled(false)
				base, err := det.Detect(b.Dirty)
				if err != nil {
					t.Fatalf("untraced detect: %v", err)
				}

				obs.SetEnabled(true)
				ctx, tr := obs.NewTrace(context.Background(), "detect")
				traced, err := det.DetectContext(ctx, b.Dirty)
				tr.Finish()
				obs.SetEnabled(false)
				if err != nil {
					t.Fatalf("traced detect: %v", err)
				}

				assertResultsIdentical(t, name, base, traced)

				// The trace must actually have observed the run: the fit
				// stages and the sharded scoring pass all hang off the root.
				tree := tr.Tree()
				for _, want := range []string{"fit", "fit.criteria", "fit.train", "score", "score.shard"} {
					if tree.Find(want) == nil {
						t.Fatalf("span %q missing from trace", want)
					}
				}
			})
		}
	}
}

// TestTraceSpanlessContextIsFree pins the disabled-and-enabled-but-untraced
// fast paths: a context with no span must never collect anything even while
// the global gate is on.
func TestTraceSpanlessContextIsFree(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	obs.SetEnabled(true)
	_, sp := obs.Start(context.Background(), "orphan")
	if sp != nil {
		t.Fatalf("span created without a trace in the context")
	}
}

// TestFitTrainSpanAttrs checks that the fit.train span reports how many
// helpers the training gang got — none on a one-worker pool, one on a free
// two-worker pool — and the minibatches and samples it trained on.
func TestFitTrainSpanAttrs(t *testing.T) {
	prev := obs.Enabled()
	defer obs.SetEnabled(prev)
	withProcs(t, 4)
	b := detBenches()[0]
	for _, workers := range []int{1, 2} {
		obs.SetEnabled(true)
		ctx, tr := obs.NewTrace(context.Background(), "detect")
		_, err := New(detConfig(workers, 1)).DetectContext(ctx, b.Dirty)
		tr.Finish()
		obs.SetEnabled(false)
		if err != nil {
			t.Fatal(err)
		}
		node := tr.Tree().Find("fit.train")
		if node == nil {
			t.Fatal("fit.train span missing")
		}
		if got, want := node.Attrs["helpers"], fmt.Sprint(workers-1); got != want {
			t.Errorf("workers=%d: helpers attr %q, want %q", workers, got, want)
		}
		var samples, batches int
		fmt.Sscan(node.Attrs["samples"], &samples)
		fmt.Sscan(node.Attrs["batches"], &batches)
		cfg := New(detConfig(workers, 1)).Config().MLP
		if want := cfg.Epochs * ((samples + cfg.BatchSize - 1) / cfg.BatchSize); samples == 0 || batches != want {
			t.Errorf("workers=%d: samples=%d batches=%d, want batches=%d", workers, samples, batches, want)
		}
	}
}
