package zeroed

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// goid returns the calling goroutine's id, parsed from its stack header.
func goid() uint64 {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	buf = bytes.TrimPrefix(buf, []byte("goroutine "))
	id, _ := strconv.ParseUint(string(buf[:bytes.IndexByte(buf, ' ')]), 10, 64)
	return id
}

// TestForNRepanicsOnCaller pins panic containment in the shared pool: a
// panic in one iteration — on a helper goroutine or on the caller's own
// share — reaches the caller's recover with the original value and the
// panicking stack, after every helper has returned its token, and the pool
// stays usable.
func TestForNRepanicsOnCaller(t *testing.T) {
	for _, tc := range []struct {
		name     string
		onCaller bool
	}{{"helper", false}, {"caller", true}} {
		t.Run(tc.name, func(t *testing.T) {
			const workers = 4
			p := newWorkPool(workers)
			caller := goid()
			var claimed sync.WaitGroup
			claimed.Add(workers)
			var panicked atomic.Int32
			var rec any
			func() {
				defer func() { rec = recover() }()
				p.forN(workers, func(int) {
					// Hold every iteration until all workers have claimed one,
					// so each goroutine runs exactly one iteration.
					claimed.Done()
					claimed.Wait()
					if (goid() == caller) == tc.onCaller && panicked.Add(1) == 1 {
						panic("boom")
					}
				})
			}()
			wp, ok := rec.(*workerPanic)
			if !ok {
				t.Fatalf("recovered %T %v, want *workerPanic", rec, rec)
			}
			if wp.value != "boom" {
				t.Fatalf("panic value %v, want boom", wp.value)
			}
			if !strings.Contains(string(wp.stack), "TestForNRepanicsOnCaller") {
				t.Fatalf("stack does not show the panicking iteration:\n%s", wp.stack)
			}
			if n := len(p.tokens); n != 0 {
				t.Fatalf("%d pool tokens still held after the re-panic", n)
			}
			var ran atomic.Int32
			p.forN(100, func(int) { ran.Add(1) })
			if ran.Load() != 100 {
				t.Fatalf("pool ran %d of 100 iterations after a panic", ran.Load())
			}
		})
	}
}

// TestForNNestedPanicKeepsInnerStack checks that a panic raised inside a
// nested forN is re-raised once, not re-wrapped at each level.
func TestForNNestedPanicKeepsInnerStack(t *testing.T) {
	p := newWorkPool(3)
	var rec any
	func() {
		defer func() { rec = recover() }()
		p.forN(4, func(i int) {
			p.forN(4, func(j int) {
				if i == 2 && j == 3 {
					panic("inner")
				}
			})
		})
	}()
	wp, ok := rec.(*workerPanic)
	if !ok || wp.value != "inner" {
		t.Fatalf("recovered %#v, want *workerPanic{inner}", rec)
	}
}
