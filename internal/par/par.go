// Package par is the module's one way of spreading work over goroutines.
// Sharded simulation rounds, scan batches and flood shards, Monte-Carlo
// trials, sweep jobs and figure cells all run through Pool.Run or Each, so
// claim order, stop-on-failure, barriers and worker counts are decided
// here and nowhere else.
package par

import (
	"sync"
	"sync/atomic"
)

// Pool is a fixed set of workers parked between calls to Run, so stepping
// many short rounds costs one wakeup per worker per round instead of
// starting goroutines. One goroutine drives a Pool at a time; Close stops
// the workers, after which the Pool must not be run again.
type Pool struct {
	workers  int
	task     func(w int) // the task of the Run in flight
	wake     chan int    // hands a parked worker the index of its call
	park     func()      // p.loop, bound once so New allocates nothing per worker
	wg       sync.WaitGroup
	mu       sync.Mutex
	panicked any // a panic of the Run in flight
}

// New starts a Pool of workers (at least 1): workers-1 parked goroutines
// plus the goroutine that calls Run.
func New(workers int) *Pool {
	p := &Pool{workers: max(workers, 1)}
	p.wake = make(chan int, p.workers-1) // one Run's sends never block
	p.park = p.loop
	for range p.workers - 1 {
		go p.park()
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Run calls task(w) once for every w in [0, Workers()), task(0) on the
// caller, and returns when all calls have returned: a barrier, so writes
// before Run are visible to every call and writes by the calls are visible
// after it. A panic in any call is re-raised here once all have returned.
// Run allocates nothing when task is built once, such as a method value
// stored in a field.
//
//gossip:allowpanic re-raises a task's own panic on the goroutine that called Run
func (p *Pool) Run(task func(w int)) {
	p.task = task
	p.wg.Add(p.workers - 1)
	for w := 1; w < p.workers; w++ {
		p.wake <- w
	}
	p.call(0)
	p.wg.Wait()
	if v := p.panicked; v != nil {
		p.panicked = nil
		panic(v)
	}
}

// Close stops the workers and returns once they have exited.
func (p *Pool) Close() {
	p.wg.Add(p.workers - 1)
	close(p.wake)
	p.wg.Wait()
}

func (p *Pool) loop() {
	for w := range p.wake {
		p.call(w)
		p.wg.Done()
	}
	p.wg.Done()
}

func (p *Pool) call(w int) {
	defer p.catch()
	p.task(w)
}

func (p *Pool) catch() {
	if v := recover(); v != nil {
		p.mu.Lock()
		p.panicked = v
		p.mu.Unlock()
	}
}

// Each calls fn(w, i) for every i in [0, n) on min(workers, n) workers,
// where w in [0, min(workers, n)) names the worker so fn can index
// per-worker scratch. Indices are claimed in increasing order, and once an
// fn returns false the workers stop claiming (one already claiming may
// take one more index): every index below a failed one has been claimed,
// and every claimed index runs to completion before Each returns. With
// workers ≤ 1 or n ≤ 1 it runs inline on the caller, in index order.
func Each(workers, n int, fn func(w, i int) bool) {
	if workers = min(workers, n); workers <= 1 {
		for i := 0; i < n && fn(0, i); i++ {
		}
		return
	}
	var claim struct {
		next atomic.Int64
		stop atomic.Bool
	}
	p := New(workers)
	defer p.Close()
	p.Run(func(w int) {
		for !claim.stop.Load() {
			i := int(claim.next.Add(1) - 1)
			if i >= n {
				return
			}
			if !fn(w, i) {
				claim.stop.Store(true)
			}
		}
	})
}

// EachAsync runs Each on a new goroutine and calls done once it returns,
// for a producer whose consumer reads results while they are computed.
func EachAsync(workers, n int, fn func(w, i int) bool, done func()) {
	go func() {
		defer done()
		Each(workers, n, fn)
	}()
}
