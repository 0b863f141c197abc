// Package dataplane provides the packet-forwarding substrate shared by every
// emulated infrastructure domain: a discrete-event engine with virtual time,
// switches with prioritized flow tables, capacitated links and attachable
// network-function handlers.
//
// The design borrows from gopacket: matches are comparable values, packets
// carry a cheap flow key, and per-rule/per-port counters are first class. The
// engine is single-threaded and deterministic — two runs of the same scenario
// produce identical traces — which is what makes the reproduction benches
// meaningful.
package dataplane

import (
	"container/heap"
	"fmt"
	"sync"
)

// VirtualTime is simulation time in milliseconds.
type VirtualTime float64

// Event is a scheduled callback.
type event struct {
	at  VirtualTime
	seq uint64 // FIFO tie-break for identical timestamps
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Engine is a deterministic discrete-event simulator. Scheduling is safe
// from any goroutine (control planes install work while the dataplane runs);
// Run/RunToIdle must be driven from a single goroutine at a time.
type Engine struct {
	mu     sync.Mutex
	now    VirtualTime
	seq    uint64
	events eventHeap
	// processed counts executed events, a cheap liveness/progress metric.
	processed uint64
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine {
	e := &Engine{}
	heap.Init(&e.events)
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() VirtualTime {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Processed returns the number of executed events.
func (e *Engine) Processed() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.processed
}

// Schedule runs fn after delay (>= 0) of virtual time.
func (e *Engine) Schedule(delay VirtualTime, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.mu.Lock()
	e.seq++
	heap.Push(&e.events, event{at: e.now + delay, seq: e.seq, fn: fn})
	e.mu.Unlock()
}

// Run executes events until the queue drains or until the horizon is passed
// (horizon <= 0 means run to idle). It returns the number of events executed.
func (e *Engine) Run(horizon VirtualTime) int {
	n := 0
	for {
		e.mu.Lock()
		if e.events.Len() == 0 {
			e.mu.Unlock()
			break
		}
		if horizon > 0 && e.events[0].at > horizon {
			e.now = horizon
			e.mu.Unlock()
			break
		}
		ev := heap.Pop(&e.events).(event)
		if ev.at > e.now {
			e.now = ev.at
		}
		e.processed++
		e.mu.Unlock()
		ev.fn()
		n++
	}
	return n
}

// RunToIdle drains the event queue completely.
func (e *Engine) RunToIdle() int { return e.Run(0) }

// String describes the engine state.
func (e *Engine) String() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fmt.Sprintf("engine t=%.3fms pending=%d processed=%d", float64(e.now), e.events.Len(), e.processed)
}
