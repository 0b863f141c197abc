package dataplane

import (
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(5, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(10, func() { order = append(order, 3) })
	n := e.RunToIdle()
	if n != 3 {
		t.Fatalf("want 3 events, got %d", n)
	}
	if order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("clock should end at 10, got %v", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.RunToIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events must run FIFO: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var hits []VirtualTime
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(2, func() { hits = append(hits, e.Now()) })
	})
	e.RunToIdle()
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 3 {
		t.Fatalf("nested scheduling broken: %v", hits)
	}
}

func TestEngineHorizon(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(1, func() { ran++ })
	e.Schedule(100, func() { ran++ })
	n := e.Run(10)
	if n != 1 || ran != 1 {
		t.Fatalf("horizon should stop before the far event: n=%d ran=%d", n, ran)
	}
	if e.Now() != 10 {
		t.Fatalf("clock should advance to horizon, got %v", e.Now())
	}
	if n := e.RunToIdle(); n != 1 || ran != 2 {
		t.Fatal("remaining event should run after horizon lifted")
	}
}

func TestEngineNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(5, func() {
		e.Schedule(-10, func() { fired = true })
	})
	e.RunToIdle()
	if !fired {
		t.Fatal("negative delay should clamp to now and run")
	}
	if e.Now() != 5 {
		t.Fatalf("clock should not go backwards: %v", e.Now())
	}
}

// Property: the engine clock is monotonic across arbitrary schedules.
func TestEngineMonotonicProperty(t *testing.T) {
	f := func(delays []uint8) bool {
		e := NewEngine()
		var last VirtualTime = -1
		ok := true
		for _, d := range delays {
			d := VirtualTime(d)
			e.Schedule(d, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.RunToIdle()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
