package par

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		n := 10_000
		hits := make([]int32, n)
		err := Do(context.Background(), workers, n, func(start, end int) {
			for i := start; i < end; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, h)
			}
		}
	}
}

func TestDoEmptyRange(t *testing.T) {
	if err := Do(context.Background(), 4, 0, func(int, int) { t.Fatal("fn called") }); err != nil {
		t.Fatal(err)
	}
}

func TestDoCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Do(ctx, 4, 1_000_000, func(start, end int) {
		if ran.Add(1) == 1 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation is checked between shards, so the pool must stop well
	// short of claiming every shard.
	if n := ran.Load(); n > 64 {
		t.Errorf("ran %d shards after cancellation", n)
	}
}

func TestDoPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Do(ctx, 1, 10, func(int, int) { t.Fatal("fn called on cancelled ctx") })
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestClamp(t *testing.T) {
	old := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(old)

	runtime.GOMAXPROCS(1)
	if got := clamp(8); got != 1 {
		t.Errorf("clamp(8) on 1 CPU = %d, want 1", got)
	}
	if got := clamp(0); got != 1 {
		t.Errorf("clamp(0) = %d, want 1", got)
	}
	runtime.GOMAXPROCS(old)
	if got := clamp(1); got != 1 {
		t.Errorf("clamp(1) = %d, want 1", got)
	}
	if old > 1 {
		if got := clamp(old + 5); got != old {
			t.Errorf("clamp(%d) = %d, want %d", old+5, got, old)
		}
	}

	// Do must still cover the range exactly once when clamped to inline.
	runtime.GOMAXPROCS(1)
	seen := make([]int, 5000)
	if err := Do(context.Background(), 8, len(seen), func(start, end int) {
		for i := start; i < end; i++ {
			seen[i]++
		}
	}); err != nil {
		t.Fatal(err)
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("index %d visited %d times", i, n)
		}
	}
}
