package obs

import (
	"sync"
	"testing"
)

// TestGaugeSemantics covers Set/Value, idempotent registration and
// reset.
func TestGaugeSemantics(t *testing.T) {
	t.Cleanup(ResetCounters)
	g := NewGauge("test_gauge_semantics_units")
	if NewGauge("test_gauge_semantics_units") != g {
		t.Error("NewGauge is not idempotent")
	}
	g.Set(5)
	g.Set(3)
	if g.Value() != 3 {
		t.Errorf("Value = %d, want 3", g.Value())
	}
	ResetCounters()
	if g.Value() != 0 {
		t.Errorf("Value after reset = %d, want 0", g.Value())
	}
}

// TestRegistryResetSnapshotRace hammers Snapshot, Add, gauge Set and
// ResetCounters from concurrent goroutines. Under -race this is the
// data-race gate for the registry; the assertions pin the consistency
// contract — a snapshot taken under the registry lock can never observe
// a half-reset view, so after the final reset every metric reads zero,
// and no intermediate snapshot holds a value that was never written.
func TestRegistryResetSnapshotRace(t *testing.T) {
	t.Cleanup(ResetCounters)
	const name = "test_race_hammer_total"
	c := NewCounter(name)
	g := NewGauge("test_race_hammer_units")
	const (
		writers = 4
		rounds  = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				c.Add(1)
				g.Set(int64(i))
			}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/10; i++ {
			ResetCounters()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds/10; i++ {
			if v := Snapshot()[name]; v < 0 || v > writers*rounds {
				t.Errorf("snapshot counter value %d out of range [0, %d]", v, writers*rounds)
			}
		}
	}()
	wg.Wait()
	ResetCounters()
	if v := c.Value(); v != 0 {
		t.Errorf("counter after final reset = %d, want 0", v)
	}
	if v := g.Value(); v != 0 {
		t.Errorf("gauge after final reset = %d, want 0", v)
	}
}
