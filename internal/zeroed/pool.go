package zeroed

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool is an exported handle on one shared bounded worker pool, for callers
// that multiplex many detection runs arriving over time — a serving process
// admitting jobs, for example — onto a single machine-wide worker budget
// via Detector.DetectOn. Every stage of every run scheduled on the pool
// draws from the same token budget, so N concurrent jobs never oversubscribe
// the machine beyond the pool's worker count. A Pool is safe for concurrent
// use and needs no shutdown.
type Pool struct {
	wp *workPool
}

// NewPool creates a shared pool with the given worker budget; zero or
// negative means runtime.GOMAXPROCS(0), mirroring Config.Workers.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{wp: newWorkPool(workers)}
}

// Workers returns the pool's worker budget.
func (p *Pool) Workers() int { return cap(p.wp.tokens) + 1 }

// orNew returns the shared workers, or a private pool of n workers when the
// caller passed no Pool.
func (p *Pool) orNew(n int) *workPool {
	if p == nil {
		return newWorkPool(n)
	}
	return p.wp
}

// workPool is the one bounded worker budget shared by every stage of the
// detection engine. A single pool spans criteria generation, sampling and
// labeling, training-data construction, feature building, and sharded
// scoring — and, through DetectBatch, all of those stages across several
// concurrent dataset runs — so nested fan-out never oversubscribes the
// machine beyond the configured worker count.
//
// The design is caller-runs with best-effort helpers: forN always executes
// work on the calling goroutine and additionally spawns helper goroutines
// while free worker tokens exist. Because the caller never blocks on a
// token, arbitrarily nested forN calls (a batch of engines, each running
// staged fan-outs) cannot deadlock; when the budget is exhausted the inner
// loops simply degrade to serial execution on their callers.
//
// The pool imposes no ordering: correctness relies on the engine's
// determinism contract — every unit of work writes disjoint slots and draws
// randomness from its own derived stream — so results are bit-identical for
// any worker count.
type workPool struct {
	// tokens holds workers-1 helper slots; the calling goroutine of each
	// forN is the implicit extra worker.
	tokens chan struct{}
}

// newWorkPool creates a pool with the given worker budget. Config
// normalization (withDefaults) guarantees workers >= 1 everywhere in this
// package.
func newWorkPool(workers int) *workPool {
	if workers < 1 {
		workers = 1
	}
	return &workPool{tokens: make(chan struct{}, workers-1)}
}

// forN runs fn(0..n-1), distributing iterations across the caller plus as
// many helper workers as the shared budget allows, and returns after every
// iteration completed. Iterations are claimed from an atomic cursor, so the
// partition adapts to uneven unit costs.
//
// A panic in any iteration — on a helper or on the caller's own share —
// stops the hand-out of further iterations; once every helper has returned
// (and released its token), forN re-raises it on the caller as a
// *workerPanic carrying the original value and the panicking goroutine's
// stack. One recover around the caller therefore covers every worker.
func (p *workPool) forN(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	f := &fanout{n: int64(n), chunk: 1, fn: fn}
	var wg sync.WaitGroup
spawn:
	for s := 0; s < n-1; s++ {
		select {
		case p.tokens <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-p.tokens
					wg.Done()
				}()
				f.run()
			}()
		default:
			break spawn // budget exhausted: the caller handles the rest
		}
	}
	f.run()
	wg.Wait()
	f.rethrow()
}

// fanout is one parallel loop over fn(0..n-1). Workers claim runs of chunk
// iterations from an atomic cursor; the first panic stops the hand-out.
type fanout struct {
	n      int64
	chunk  int64
	fn     func(i int)
	cursor atomic.Int64
	active atomic.Int32 // workers inside run
	failed atomic.Pointer[workerPanic]
}

// run claims and runs iterations until none are left. A panic is captured
// with its stack, and ends the hand-out for every worker.
func (f *fanout) run() {
	f.active.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			wp, ok := rec.(*workerPanic) // a nested fan-out already wrapped it
			if !ok {
				wp = &workerPanic{value: rec, stack: debug.Stack()}
			}
			f.failed.CompareAndSwap(nil, wp)
			f.cursor.Store(f.n)
		}
		f.active.Add(-1)
	}()
	for {
		lo := f.cursor.Add(f.chunk) - f.chunk
		if lo >= f.n {
			return
		}
		for i := lo; i < min(lo+f.chunk, f.n); i++ {
			f.fn(int(i))
		}
	}
}

// rethrow re-raises the fan-out's first panic, if any, on the caller.
func (f *fanout) rethrow() {
	if wp := f.failed.Load(); wp != nil {
		panic(wp)
	}
}

// gangSpin bounds how many scheduler yields an idle gang helper waits for
// the next fan-out before it parks. Training issues two fan-outs per
// minibatch, microseconds apart, so a helper that parked after each one
// would pay a wake-up per fan-out.
const gangSpin = 256

// gang is a set of helpers borrowed from the pool for the length of one
// gang body, joining each fan-out the body issues through ForN. It is the
// nn.Gang a training run spreads its minibatches over.
type gang struct {
	helpers  int
	job      atomic.Pointer[fanout] // the current fan-out; nil dismisses the helpers
	seq      atomic.Uint64          // bumped at every publish
	sleepers atomic.Int32           // helpers parked on wake
	mu       sync.Mutex
	wake     *sync.Cond
}

// gang runs body with as many helpers as there are free pool tokens, up to
// GOMAXPROCS-1 (an idle helper spins briefly, and a spinner beyond the
// machine's processors only steals time from one doing work). The helpers
// hold their tokens until body returns; with no token free, body runs with
// no helpers and every ForN is serial on the caller. The gang never waits
// for a token, so it nests inside forN, and forN nests inside its body, as
// freely as forN nests in itself. When gang returns — normally or by a
// panic — every helper has exited and released its token.
func (p *workPool) gang(body func(g *gang)) {
	g := &gang{}
	want := min(cap(p.tokens), runtime.GOMAXPROCS(0)-1)
claim:
	for g.helpers < want {
		select {
		case p.tokens <- struct{}{}:
			g.helpers++
		default:
			break claim
		}
	}
	if g.helpers > 0 {
		g.wake = sync.NewCond(&g.mu)
		var wg sync.WaitGroup
		wg.Add(g.helpers)
		for range g.helpers {
			go func() {
				defer wg.Done()
				g.help()
			}()
		}
		defer func() {
			g.publish(nil)
			wg.Wait()
			for range g.helpers {
				<-p.tokens
			}
		}()
	}
	body(g)
}

// ForN runs fn(0..n-1) on the caller and every helper that joins in time,
// and returns once every iteration completed. Workers claim iterations in
// runs of about a quarter of an even share, which keeps the shared-cursor
// traffic per fan-out small. The caller waits only for helpers that
// claimed iterations, never for one still waking up: a helper that arrives
// after the last claim finds the cursor spent and leaves. A panic in any
// iteration is re-raised on the caller as a *workerPanic, as in forN. With
// no helpers, or at most one iteration, ForN is a plain loop on the caller
// and a panic propagates unwrapped.
func (g *gang) ForN(n int, fn func(i int)) {
	if g.helpers == 0 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	f := &fanout{n: int64(n), chunk: int64(max(1, n/(4*(g.helpers+1)))), fn: fn}
	g.publish(f)
	f.run()
	for f.active.Load() != 0 {
		runtime.Gosched()
	}
	f.rethrow()
}

// publish makes f the current fan-out and wakes any parked helper.
func (g *gang) publish(f *fanout) {
	g.job.Store(f)
	g.seq.Add(1)
	if g.sleepers.Load() > 0 {
		g.mu.Lock()
		g.wake.Broadcast()
		g.mu.Unlock()
	}
}

// help is one helper's loop: wait for a fan-out, spinning briefly and then
// parking, join it, and exit once dismissed. A helper counts itself among
// the sleepers before it re-checks seq under the lock, so a publish either
// sees the sleeper and broadcasts or happens before the re-check.
func (g *gang) help() {
	var seen uint64
	for {
		seq := g.seq.Load()
		for spin := 0; seq == seen && spin < gangSpin; spin++ {
			runtime.Gosched()
			seq = g.seq.Load()
		}
		if seq == seen {
			g.mu.Lock()
			g.sleepers.Add(1)
			for seq = g.seq.Load(); seq == seen; seq = g.seq.Load() {
				g.wake.Wait()
			}
			g.sleepers.Add(-1)
			g.mu.Unlock()
		}
		seen = seq
		f := g.job.Load()
		if f == nil {
			return
		}
		f.run()
	}
}

// workerPanic is the first panic raised inside a fan-out iteration,
// re-raised on the fan-out's caller: the original value plus the stack it
// was raised on.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string { return fmt.Sprintf("%v\n\n%s", p.value, p.stack) }
