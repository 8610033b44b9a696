package nn

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

// helperGang is a test Parallel with exactly k helper goroutines besides
// the caller. Each fan-out hands its iterations out in reverse index order,
// so no schedule it produces resembles the serial one.
func helperGang(k int) Parallel {
	return func(body func(Gang)) {
		g := &chanGang{helpers: k, work: make(chan func())}
		var wg sync.WaitGroup
		for range k {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for f := range g.work {
					f()
				}
			}()
		}
		defer func() {
			close(g.work)
			wg.Wait()
		}()
		body(g)
	}
}

// chanGang hands each fan-out to its helpers over an unbuffered channel.
type chanGang struct {
	helpers int
	work    chan func()
}

func (g *chanGang) ForN(n int, fn func(i int)) {
	var next atomic.Int64
	run := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(n - 1 - i)
		}
	}
	var done sync.WaitGroup
	done.Add(g.helpers)
	for range g.helpers {
		g.work <- func() {
			defer done.Done()
			run()
		}
	}
	run()
	done.Wait()
}

// TestTrainMatchesSerialOracle pins the gang-parallel training loop to the
// frozen serial loop (trainRef) bit for bit — every weight, every bias and
// the final loss — with no gang and with 0, 1, 2, 3 and 7 helpers, on
// shapes that exercise a partial final batch, single-sample batches, a
// batch larger than the set, an input width that is not a multiple of the
// layer-1 column block, and a Hidden2 that is not a multiple of the
// layer-2 row group.
func TestTrainMatchesSerialOracle(t *testing.T) {
	shapes := []struct {
		name string
		n    int
		dim  int
		cfg  Config
	}{
		{"partial-final-batch", 203, 17, Config{Hidden1: 24, Hidden2: 12, LR: 1e-3, Epochs: 4, BatchSize: 32, Seed: 9, L2: 1e-5}},
		{"batch-size-1", 45, 6, Config{Hidden1: 8, Hidden2: 5, LR: 1e-2, Epochs: 3, BatchSize: 1, Seed: 3, L2: 1e-4}},
		{"batch-exceeds-set", 21, 9, Config{Hidden1: 10, Hidden2: 9, LR: 1e-3, Epochs: 5, BatchSize: 64, Seed: 4}},
		{"ragged-blocks", 150, 2*colBlock + 17, Config{Hidden1: 33, Hidden2: 2*rowGroup + 3, LR: 1e-3, Epochs: 3, BatchSize: 16, Seed: 5, L2: 1e-5}},
		{"pipeline-shape", 260, 150, Config{Hidden1: 64, Hidden2: 32, LR: 1e-3, Epochs: 2, BatchSize: 32, Seed: 1, L2: 1e-5}},
	}
	gangs := []struct {
		name string
		par  Parallel
	}{
		{"nil", nil}, {"helpers=0", helperGang(0)}, {"helpers=1", helperGang(1)},
		{"helpers=2", helperGang(2)}, {"helpers=3", helperGang(3)}, {"helpers=7", helperGang(7)},
	}
	for _, sh := range shapes {
		_, y, flat := synthTrainingSet(sh.n, sh.dim, int64(sh.n))
		ref := New(sh.dim, sh.cfg)
		refLoss, err := trainRef(ref, flat, sh.n, y)
		if err != nil {
			t.Fatalf("%s: trainRef: %v", sh.name, err)
		}
		want := ref.Snapshot()
		for _, gc := range gangs {
			t.Run(fmt.Sprintf("%s/%s", sh.name, gc.name), func(t *testing.T) {
				m := New(sh.dim, sh.cfg)
				loss, err := m.TrainFlat(context.Background(), flat, sh.n, y, gc.par)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(loss) != math.Float64bits(refLoss) {
					t.Fatalf("final loss %v, oracle %v", loss, refLoss)
				}
				got := m.Snapshot()
				sameBits(t, "W1", got.W1, want.W1)
				sameBits(t, "W2", got.W2, want.W2)
				sameBits(t, "W3", got.W3, want.W3)
				sameBits(t, "B1", got.B1, want.B1)
				sameBits(t, "B2", got.B2, want.B2)
				sameBits(t, "B3", []float64{got.B3}, []float64{want.B3})
			})
		}
	}
}

// TestTrainGangRejectsNonFiniteLikeOracle checks that a non-finite sample
// surfaces the same error under a gang as serially: the first bad sample
// in batch order, whichever worker validated it.
func TestTrainGangRejectsNonFiniteLikeOracle(t *testing.T) {
	const n, dim = 90, 7
	_, y, flat := synthTrainingSet(n, dim, 21)
	flat[40*dim+3] = math.Inf(-1)
	y[71] = math.NaN()
	cfg := Config{Hidden1: 8, Hidden2: 4, Epochs: 2, BatchSize: 90, Seed: 2}
	_, refErr := trainRef(New(dim, cfg), flat, n, y)
	if refErr == nil {
		t.Fatal("oracle accepted a non-finite sample")
	}
	for _, k := range []int{0, 3} {
		_, err := New(dim, cfg).TrainFlat(context.Background(), flat, n, y, helperGang(k))
		if err == nil || err.Error() != refErr.Error() {
			t.Fatalf("helpers=%d: error %v, oracle %v", k, err, refErr)
		}
	}
}

func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, oracle %d", name, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%x), oracle %v (%x)", name, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// BenchmarkTrainSerial compares the serial form of the training loop (no
// gang) with the frozen pre-gang loop on the pipeline's layer shape, so the
// per-batch split's serial overhead stays measurable.
func BenchmarkTrainSerial(b *testing.B) {
	const n, dim = 2000, 150
	_, y, flat := synthTrainingSet(n, dim, 1)
	cfg := Config{Hidden1: 64, Hidden2: 32, LR: 1e-3, Epochs: 2, BatchSize: 32, Seed: 1, L2: 1e-5}
	b.Run("loop", func(b *testing.B) {
		for range b.N {
			if _, err := New(dim, cfg).TrainFlat(context.Background(), flat, n, y, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		for range b.N {
			if _, err := trainRef(New(dim, cfg), flat, n, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}
