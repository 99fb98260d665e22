package harness

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// memo is a per-key singleflight cache: concurrent callers of do() with
// the same key share one computation, and independent keys never contend
// beyond the map access itself. This is what lets the suite's expensive
// artifacts (built programs, analyses, transformed binaries, simulations)
// be produced concurrently without a coarse global lock.
type memo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*memoEntry[V]
}

type memoEntry[V any] struct {
	once sync.Once
	val  V
	err  error
}

// do returns the cached value for key, computing it with fn exactly once.
// A panic in fn becomes the entry's error, stack included: sync.Once
// counts a panicking call as done, so an unrecovered panic would leave
// every later caller of the key a zero value and a nil error.
func (c *memo[K, V]) do(key K, fn func() (V, error)) (V, error) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[K]*memoEntry[V])
	}
	e, ok := c.m[key]
	if !ok {
		e = new(memoEntry[V])
		c.m[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		defer recoverInto(&e.err)
		e.val, e.err = fn()
	})
	return e.val, e.err
}

// recoverInto, deferred, turns a panic into *err with its stack.
func recoverInto(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("harness: panic: %v\n%s", r, debug.Stack())
	}
}

// workers returns the fan-out bound for suite drivers.
func (s *Suite) workers() int {
	if s.Workers > 0 {
		return s.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// mapSlice runs fn once per item, fanned out across a worker-bounded
// pool, and returns the per-item results in input order (so report
// assembly — including float accumulation — is deterministic regardless
// of completion order). The first error in input order wins. A panic in
// fn becomes that item's error, stack included: a worker goroutine is out
// of reach of any recover on the caller's stack, so an unrecovered panic
// here would take the whole process down.
//
// Cancelling ctx stops scheduling further work — including while blocked
// waiting for a pool slot — and returns the context's error once
// in-flight items have drained.
func mapSlice[S, T any](ctx context.Context, workers int, items []S, fn func(item S) (T, error)) ([]T, error) {
	out := make([]T, len(items))
	errs := make([]error, len(items))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	var canceled error
schedule:
	for i, item := range items {
		if err := ctx.Err(); err != nil {
			canceled = err
			break
		}
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			canceled = ctx.Err()
			break schedule
		}
		wg.Add(1)
		go func(i int, item S) {
			defer wg.Done()
			defer func() { <-sem }()
			defer recoverInto(&errs[i])
			out[i], errs[i] = fn(item)
		}(i, item)
	}
	wg.Wait()
	if canceled != nil {
		return nil, canceled
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mapNames is mapSlice over the suite's benchmark names with the suite's
// worker bound — the fan-out every experiment driver uses.
func mapNames[T any](ctx context.Context, s *Suite, fn func(name string) (T, error)) ([]T, error) {
	return mapSlice(ctx, s.workers(), s.Names(), fn)
}
