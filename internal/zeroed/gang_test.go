package zeroed

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nn"
)

// withProcs raises GOMAXPROCS for one test, so a gang can borrow helpers on
// a machine with fewer processors.
func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// requireNoHelpers fails unless every gang helper goroutine has exited. A
// helper signals its exit just before it returns, so the check allows the
// goroutine a moment to finish unwinding.
func requireNoHelpers(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); ; {
		buf = buf[:runtime.Stack(buf[:cap(buf)], true)]
		if !bytes.Contains(buf, []byte("(*gang).help")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("gang helpers outlived their gang:\n%s", buf)
		}
		time.Sleep(time.Millisecond)
	}
}

// requireTokensFree fails unless every token of p is back in the pool.
func requireTokensFree(t *testing.T, p *workPool) {
	t.Helper()
	if n := len(p.tokens); n != 0 {
		t.Fatalf("%d pool tokens still held", n)
	}
}

// TestGangRunsEveryIterationOnce checks a gang's fan-outs across many
// rounds: every iteration runs exactly once, helpers really join, and the
// gang returns its tokens and helpers when its body ends.
func TestGangRunsEveryIterationOnce(t *testing.T) {
	withProcs(t, 4)
	p := newWorkPool(4)
	p.gang(func(g *gang) {
		if g.helpers != 3 {
			t.Errorf("gang got %d helpers from a free 4-worker pool, want 3", g.helpers)
		}
		for round := range 200 {
			n := round%37 + 1
			hits := make([]atomic.Int32, n)
			g.ForN(n, func(i int) { hits[i].Add(1) })
			for i := range hits {
				if c := hits[i].Load(); c != 1 {
					t.Fatalf("round %d: iteration %d ran %d times", round, i, c)
				}
			}
		}
		// Hold each iteration until every worker has claimed one, so the
		// helpers provably take part.
		var claimed sync.WaitGroup
		claimed.Add(g.helpers + 1)
		g.ForN(g.helpers+1, func(int) {
			claimed.Done()
			claimed.Wait()
		})
	})
	requireTokensFree(t, p)
	requireNoHelpers(t)
}

// TestGangRepanicsOnCaller pins the panic contract gang shares with forN:
// a panic in an iteration — on a helper or on the caller — reaches the
// caller as a *workerPanic with the original value and the panicking
// goroutine's stack, after every helper has exited and returned its token.
func TestGangRepanicsOnCaller(t *testing.T) {
	withProcs(t, 4)
	for _, tc := range []struct {
		name     string
		onCaller bool
	}{{"helper", false}, {"caller", true}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newWorkPool(4)
			caller := goid()
			var rec any
			func() {
				defer func() { rec = recover() }()
				p.gang(func(g *gang) {
					var claimed sync.WaitGroup
					claimed.Add(g.helpers + 1)
					var panicked atomic.Int32
					g.ForN(g.helpers+1, func(int) {
						claimed.Done()
						claimed.Wait()
						if (goid() == caller) == tc.onCaller && panicked.Add(1) == 1 {
							panic("boom")
						}
					})
					t.Error("ForN returned normally after an iteration panicked")
				})
			}()
			wp, ok := rec.(*workerPanic)
			if !ok {
				t.Fatalf("recovered %T %v, want *workerPanic", rec, rec)
			}
			if wp.value != "boom" {
				t.Fatalf("panic value %v, want boom", wp.value)
			}
			if !strings.Contains(string(wp.stack), "TestGangRepanicsOnCaller") {
				t.Fatalf("stack does not show the panicking iteration:\n%s", wp.stack)
			}
			if !tc.onCaller && !strings.Contains(string(wp.stack), "(*gang).help") {
				t.Fatalf("stack is not the helper's:\n%s", wp.stack)
			}
			requireTokensFree(t, p)
			requireNoHelpers(t)
		})
	}
}

// TestGangWithoutFreeTokenRunsSerially checks that a gang on an exhausted
// pool gets no helper, runs every iteration on the caller in order, and
// never waits for a token.
func TestGangWithoutFreeTokenRunsSerially(t *testing.T) {
	withProcs(t, 4)
	p := newWorkPool(2)
	p.tokens <- struct{}{} // another job holds the only helper token
	done := make(chan []int, 1)
	go func() {
		caller := goid()
		var order []int
		p.gang(func(g *gang) {
			if g.helpers != 0 {
				t.Errorf("gang got %d helpers from an exhausted pool", g.helpers)
			}
			g.ForN(50, func(i int) {
				if goid() != caller {
					t.Errorf("iteration %d ran off the caller", i)
				}
				order = append(order, i)
			})
		})
		done <- order
	}()
	select {
	case order := <-done:
		for i, v := range order {
			if i != v {
				t.Fatalf("serial gang ran iteration %d at position %d", v, i)
			}
		}
		if len(order) != 50 {
			t.Fatalf("serial gang ran %d of 50 iterations", len(order))
		}
	case <-time.After(10 * time.Second):
		t.Fatal("gang blocked on an exhausted pool")
	}
	<-p.tokens
	requireTokensFree(t, p)
}

// TestGangNestsWithForN checks that forN inside a gang body — and inside a
// gang iteration — completes while the gang holds tokens, and that a gang
// opened inside a forN iteration does too.
func TestGangNestsWithForN(t *testing.T) {
	withProcs(t, 4)
	p := newWorkPool(3)
	var sum atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.gang(func(g *gang) {
			p.forN(10, func(i int) { sum.Add(int64(i)) })
			g.ForN(8, func(int) {
				p.forN(10, func(i int) { sum.Add(int64(i)) })
			})
		})
		p.forN(4, func(int) {
			p.gang(func(g *gang) {
				g.ForN(10, func(i int) { sum.Add(int64(i)) })
			})
		})
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("nested gang/forN deadlocked")
	}
	if got, want := sum.Load(), int64(45*(1+8+4)); got != want {
		t.Fatalf("nested fan-outs summed %d, want %d", got, want)
	}
	requireTokensFree(t, p)
	requireNoHelpers(t)
}

// gangTrainingSet is a small deterministic two-class training tile.
func gangTrainingSet(n, dim int) ([]float64, []float64) {
	rng := rand.New(rand.NewSource(int64(n*dim + 1)))
	X := make([]float64, n*dim)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		for k := 0; k < dim; k++ {
			X[i*dim+k] = rng.NormFloat64()
			s += X[i*dim+k]
		}
		if s > 0 {
			y[i] = 1
		}
	}
	return X, y
}

// gangParallel adapts p's gang to the trainer's Parallel hook, wrapping
// the gang handed to training when wrap is non-nil.
func gangParallel(p *workPool, wrap func(nn.Gang) nn.Gang) nn.Parallel {
	return func(body func(nn.Gang)) {
		p.gang(func(g *gang) {
			if wrap != nil {
				body(wrap(g))
				return
			}
			body(g)
		})
	}
}

// TestGangTrainingBitIdentical trains one MLP serially and on pools of 2, 3
// and 8 workers and requires identical weights and loss, bit for bit.
func TestGangTrainingBitIdentical(t *testing.T) {
	withProcs(t, 4)
	const n, dim = 300, 45
	X, y := gangTrainingSet(n, dim)
	cfg := nn.Config{Hidden1: 24, Hidden2: 10, LR: 1e-3, Epochs: 3, BatchSize: 32, Seed: 3, L2: 1e-5}
	ref := nn.New(dim, cfg)
	refLoss, err := ref.TrainFlat(context.Background(), X, n, y, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Snapshot()
	for _, workers := range []int{2, 3, 8} {
		p := newWorkPool(workers)
		m := nn.New(dim, cfg)
		loss, err := m.TrainFlat(context.Background(), X, n, y, gangParallel(p, nil))
		if err != nil {
			t.Fatal(err)
		}
		got := m.Snapshot()
		if math.Float64bits(loss) != math.Float64bits(refLoss) {
			t.Fatalf("workers=%d: loss %v, serial %v", workers, loss, refLoss)
		}
		for name, pair := range map[string][2][]float64{
			"W1": {got.W1, want.W1}, "W2": {got.W2, want.W2}, "W3": {got.W3, want.W3},
			"B1": {got.B1, want.B1}, "B2": {got.B2, want.B2}, "B3": {{got.B3}, {want.B3}},
		} {
			for i := range pair[0] {
				if math.Float64bits(pair[0][i]) != math.Float64bits(pair[1][i]) {
					t.Fatalf("workers=%d: %s[%d] = %v, serial %v", workers, name, i, pair[0][i], pair[1][i])
				}
			}
		}
		requireTokensFree(t, p)
	}
	requireNoHelpers(t)
}

// cancelingGang cancels its context once a set number of fan-outs began.
type cancelingGang struct {
	nn.Gang
	left   *atomic.Int32
	cancel context.CancelFunc
}

func (c cancelingGang) ForN(n int, fn func(i int)) {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	c.Gang.ForN(n, fn)
}

// TestGangTrainingCanceledMidway cancels a gang-parallel training run
// partway through its second epoch: training returns the nn cancellation
// error, and the gang leaves no helper or token behind.
func TestGangTrainingCanceledMidway(t *testing.T) {
	withProcs(t, 4)
	const n, dim = 320, 12 // 10 batches, 20 fan-outs per epoch
	X, y := gangTrainingSet(n, dim)
	p := newWorkPool(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var left atomic.Int32
	left.Store(30)
	par := gangParallel(p, func(g nn.Gang) nn.Gang {
		return cancelingGang{Gang: g, left: &left, cancel: cancel}
	})
	m := nn.New(dim, nn.Config{Hidden1: 8, Hidden2: 4, Epochs: 10, BatchSize: 32, Seed: 1})
	_, err := m.TrainFlat(ctx, X, n, y, par)
	if err == nil || !errors.Is(err, context.Canceled) ||
		!strings.Contains(err.Error(), "nn: training canceled at epoch 2") {
		t.Fatalf("canceled training returned %v, want the nn cancellation error at epoch 2", err)
	}
	if m.Trained() {
		t.Fatal("canceled training marked the model trained")
	}
	requireTokensFree(t, p)
	requireNoHelpers(t)
}

// BenchmarkTrainOnPool trains the pipeline's layer shape on a pool of 1
// and 2 workers: the gang's speedup over serial training, and its serial
// overhead at one worker.
func BenchmarkTrainOnPool(b *testing.B) {
	const n, dim = 4000, 150
	X, y := gangTrainingSet(n, dim)
	cfg := nn.Config{Hidden1: 64, Hidden2: 32, LR: 1e-3, Epochs: 2, BatchSize: 32, Seed: 1, L2: 1e-5}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			p := newWorkPool(workers)
			for range b.N {
				if _, err := nn.New(dim, cfg).TrainFlat(context.Background(), X, n, y, gangParallel(p, nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
