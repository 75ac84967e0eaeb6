package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestPoolSize(t *testing.T) {
	for _, tc := range []struct{ requested, n, want int }{
		{4, 10, 4},
		{4, 2, 2},
		{1, 10, 1},
		{3, 0, 1},
		{0, 1 << 20, runtime.GOMAXPROCS(0)},
		{-1, 1, 1},
	} {
		if got := Size(tc.requested, tc.n); got != tc.want {
			t.Errorf("Size(%d, %d) = %d, want %d", tc.requested, tc.n, got, tc.want)
		}
	}
}

// TestRunWithVisitsEveryIndexOnce runs the pool at several widths: every
// index is processed exactly once, and each worker builds its own state
// once, never shared with another worker.
func TestRunWithVisitsEveryIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{{1, 5}, {4, 0}, {4, 1}, {4, 100}, {0, 37}} {
		var states atomic.Int64
		hits := make([]atomic.Int64, tc.n)
		RunWith(tc.workers, tc.n, func() *int {
			states.Add(1)
			return new(int)
		}, func(items *int, i int) {
			*items++ // unsynchronized: the race detector catches sharing
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d n=%d: index %d processed %d times", tc.workers, tc.n, i, got)
			}
		}
		if got, limit := states.Load(), int64(Size(tc.workers, tc.n)); tc.n > 0 && (got < 1 || got > limit) {
			t.Errorf("workers=%d n=%d: %d states built, want 1..%d", tc.workers, tc.n, got, limit)
		}
	}
}
