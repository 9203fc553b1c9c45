package par

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestEachClaimsInOrderOnce(t *testing.T) {
	const workers, n = 4, 2000
	claimed := make([][]int, workers) // claimed[w] is only touched by worker w
	Each(workers, n, func(w, i int) bool {
		claimed[w] = append(claimed[w], i)
		return true
	})
	var all []int
	for w, seq := range claimed {
		if !slices.IsSorted(seq) {
			t.Errorf("worker %d claimed out of order: %v", w, seq)
		}
		all = append(all, seq...)
	}
	slices.Sort(all)
	for i, v := range all {
		if v != i {
			t.Fatalf("indices run: want each of [0, %d) once, got %d at position %d", n, v, i)
		}
	}
	if len(all) != n {
		t.Fatalf("ran %d indices, want %d", len(all), n)
	}
}

func TestEachStopsOnFalse(t *testing.T) {
	const workers, n, fail = 4, 1 << 24, 100
	ran := make([]atomic.Bool, fail)
	var count atomic.Int64
	Each(workers, n, func(_, i int) bool {
		count.Add(1)
		if i < fail {
			ran[i].Store(true)
		}
		return i != fail
	})
	for i := range ran {
		if !ran[i].Load() {
			t.Errorf("index %d below the failing index %d never ran", i, fail)
		}
	}
	// Without the stop every one of the n indices would run.
	if c := count.Load(); c >= n/2 {
		t.Errorf("ran %d of %d indices after index %d returned false", c, n, fail)
	}
}

func TestEachInline(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 5}, {0, 5}, {-3, 5}, {8, 1}, {4, 0}} {
		base := runtime.NumGoroutine()
		var got []int
		Each(tc.workers, tc.n, func(w, i int) bool {
			if w != 0 {
				t.Errorf("workers=%d n=%d: inline call got worker %d", tc.workers, tc.n, w)
			}
			if g := runtime.NumGoroutine(); g != base {
				t.Errorf("workers=%d n=%d: %d goroutines during an inline call, want %d", tc.workers, tc.n, g, base)
			}
			got = append(got, i)
			return i != 2
		})
		want := []int{0, 1, 2}[:min(tc.n, 3)]
		if !slices.Equal(got, want) {
			t.Errorf("workers=%d n=%d: ran %v, want %v", tc.workers, tc.n, got, want)
		}
	}
}

func TestEachMoreWorkersThanIndices(t *testing.T) {
	const n = 3
	var hits [n]atomic.Int32
	Each(16, n, func(w, i int) bool {
		if w < 0 || w >= n {
			t.Errorf("worker %d outside [0, %d)", w, n)
		}
		hits[i].Add(1)
		return true
	})
	for i := range hits {
		if h := hits[i].Load(); h != 1 {
			t.Errorf("index %d ran %d times", i, h)
		}
	}
}

// runCounter is a Run task bound once, the shape every pool caller uses.
type runCounter struct {
	calls []int // calls[w] is written only by the call for w
	run   func(w int)
}

func (c *runCounter) count(w int) { c.calls[w]++ }

func TestPoolRun(t *testing.T) {
	for _, workers := range []int{-1, 1, 2, 5} {
		p := New(workers)
		c := &runCounter{calls: make([]int, p.Workers())}
		c.run = c.count
		const rounds = 50
		for range rounds {
			p.Run(c.run)
		}
		p.Close()
		if want := max(workers, 1); p.Workers() != want {
			t.Errorf("New(%d).Workers() = %d, want %d", workers, p.Workers(), want)
		}
		for w, n := range c.calls {
			if n != rounds {
				t.Errorf("workers=%d: worker %d ran %d of %d rounds", workers, w, n, rounds)
			}
		}
	}
}

func TestPoolRunAllocatesNothing(t *testing.T) {
	p := New(4)
	defer p.Close()
	c := &runCounter{calls: make([]int, p.Workers())}
	c.run = c.count
	if a := testing.AllocsPerRun(200, func() { p.Run(c.run) }); a != 0 {
		t.Errorf("Pool.Run allocated %.1f times per call, want 0", a)
	}
}

func TestPoolRunReraisesPanic(t *testing.T) {
	p := New(3)
	defer p.Close()
	for _, bad := range []int{0, 2} {
		func() {
			defer func() {
				if v := recover(); v != bad {
					t.Errorf("Run re-raised %v, want the panic of worker %d", v, bad)
				}
			}()
			p.Run(func(w int) {
				if w == bad {
					panic(bad)
				}
			})
		}()
	}
	// The pool survives a panicking round.
	var ran atomic.Int32
	p.Run(func(int) { ran.Add(1) })
	if ran.Load() != 3 {
		t.Errorf("Run after a panic made %d calls, want 3", ran.Load())
	}
}

func TestPoolCloseStopsWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	p := New(6)
	p.Run(func(int) {})
	p.Close()
	waitGoroutines(t, base)
}

// waitGoroutines fails unless the goroutine count falls back to base: a
// worker that has signalled its exit may need a moment to be gone.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left running, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
