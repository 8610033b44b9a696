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
	var cursor atomic.Int64
	var failed atomic.Pointer[workerPanic]
	run := func() {
		defer func() {
			if rec := recover(); rec != nil {
				wp, ok := rec.(*workerPanic) // a nested forN already wrapped it
				if !ok {
					wp = &workerPanic{value: rec, stack: debug.Stack()}
				}
				failed.CompareAndSwap(nil, wp)
				cursor.Store(int64(n))
			}
		}()
		for {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
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
				run()
			}()
		default:
			break spawn // budget exhausted: the caller handles the rest
		}
	}
	run()
	wg.Wait()
	if wp := failed.Load(); wp != nil {
		panic(wp)
	}
}

// workerPanic is the first panic raised inside a forN iteration, re-raised
// on the forN caller: the original value plus the stack it was raised on.
type workerPanic struct {
	value any
	stack []byte
}

func (p *workerPanic) Error() string { return fmt.Sprintf("%v\n\n%s", p.value, p.stack) }
