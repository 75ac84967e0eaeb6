package obs

import (
	"sync"
	"testing"
)

func TestNewCounterIdempotent(t *testing.T) {
	t.Cleanup(ResetCounters)
	a := NewCounter("obs_test.idem")
	b := NewCounter("obs_test.idem")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(3)
	if got := b.Value(); got != 3 {
		t.Fatalf("shared counter value = %d, want 3", got)
	}
	if got := Snapshot()["obs_test.idem"]; got != 3 {
		t.Fatalf("snapshot under the registered name = %d, want 3", got)
	}
}

// TestCounterConcurrentAdd exercises the lock-free contract under -race.
func TestCounterConcurrentAdd(t *testing.T) {
	t.Cleanup(ResetCounters)
	c := NewCounter("obs_test.concurrent")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Fatalf("value = %d, want %d", got, workers*per)
	}
}

func TestSnapshotAndReset(t *testing.T) {
	t.Cleanup(ResetCounters)
	a := NewCounter("obs_test.snap_a")
	b := NewCounter("obs_test.snap_b")
	a.Add(5)
	b.Set(9)
	snap := Snapshot()
	if snap["obs_test.snap_a"] != 5 || snap["obs_test.snap_b"] != 9 {
		t.Fatalf("snapshot = %v", snap)
	}
	ResetCounters()
	if a.Value() != 0 || b.Value() != 0 {
		t.Fatal("ResetCounters left non-zero values")
	}
	// Handles stay valid after reset.
	a.Add(1)
	if a.Value() != 1 {
		t.Fatal("handle dead after reset")
	}
}
