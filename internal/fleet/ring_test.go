package fleet

import (
	"fmt"
	"testing"
)

// ringKeys is a corpus-shaped key population: enough hosts that the
// statistical properties (balance, movement fractions) are stable.
func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("site-%05d.example.test", i)
	}
	return keys
}

func ringNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("policyd-%d", i)
	}
	return names
}

// TestRingBalance: every replica owns a non-trivial share of the
// keyspace — no starved replica, no >3× overload at 64 vnodes.
func TestRingBalance(t *testing.T) {
	keys := ringKeys(20000)
	for _, n := range []int{2, 3, 5} {
		r := NewRing(ringNames(n), 0)
		counts := make([]int, n)
		for _, k := range keys {
			counts[r.Pick(k)]++
		}
		mean := len(keys) / n
		for i, c := range counts {
			if c < mean/3 || c > mean*3 {
				t.Errorf("n=%d: replica %d owns %d keys, mean %d — imbalance beyond 3x", n, i, c, mean)
			}
		}
	}
}

// TestRingStability pins the consistent-hashing contract that makes the
// gateway's cache-locality story work across membership changes.
//
// Remove: a key that mapped to a surviving replica MUST NOT move — only
// the removed replica's keys redistribute. This is exact, not
// statistical: removing a name removes only that name's vnode points.
//
// Add: every key that moves must move TO the new replica, and the moved
// fraction stays near 1/(N+1).
func TestRingStability(t *testing.T) {
	keys := ringKeys(20000)
	names := ringNames(4)
	r := NewRing(names, 0)

	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k] = r.Name(r.Pick(k))
	}

	t.Run("remove", func(t *testing.T) {
		removed := "policyd-2"
		r2 := r.Remove(removed)
		moved := 0
		for _, k := range keys {
			now := r2.Name(r2.Pick(k))
			was := before[k]
			if was != removed && now != was {
				t.Fatalf("key %s moved %s -> %s although %s survived", k, was, now, was)
			}
			if was == removed {
				moved++
			}
		}
		if moved == 0 {
			t.Fatal("removed replica owned no keys — balance test should have caught this")
		}
		t.Logf("remove: %d/%d keys redistributed (the removed replica's share)", moved, len(keys))
	})

	t.Run("add", func(t *testing.T) {
		r2 := r.Add("policyd-9")
		moved := 0
		for _, k := range keys {
			now := r2.Name(r2.Pick(k))
			if now != before[k] {
				if now != "policyd-9" {
					t.Fatalf("key %s moved %s -> %s, not to the new replica", k, before[k], now)
				}
				moved++
			}
		}
		// Expected share 1/(N+1) = 20%; allow generous slack for vnode
		// placement variance but fail on unbounded movement.
		frac := float64(moved) / float64(len(keys))
		if frac == 0 || frac > 0.40 {
			t.Fatalf("add moved %.1f%% of keys, want ~20%% (bounded)", 100*frac)
		}
		t.Logf("add: %.1f%% of keys moved to the new replica (expected ~%.0f%%)", 100*frac, 100.0/5)
	})
}

// TestRingDeterminism: same membership, same assignments — Pick must be
// a pure function of (names, key) so every gateway instance routes
// identically.
func TestRingDeterminism(t *testing.T) {
	keys := ringKeys(1000)
	a := NewRing(ringNames(3), 0)
	b := NewRing(ringNames(3), 0)
	for _, k := range keys {
		if a.Pick(k) != b.Pick(k) {
			t.Fatalf("rings with identical membership disagree on %s", k)
		}
	}
	if NewRing(nil, 0).Pick("x") != -1 {
		t.Fatal("empty ring must return -1")
	}
}

// TestRingSuccessor: a key's successor is another replica, and exactly
// the one the key moves to when its owner is removed, so failover keeps
// the ring's placement. A one-replica ring has no successor, and the
// lookup allocates nothing.
func TestRingSuccessor(t *testing.T) {
	r := NewRing(ringNames(4), 0)
	without := map[int]*Ring{}
	for _, k := range ringKeys(5000) {
		owner, next := r.Pick(k), r.successor(k)
		if next < 0 || next == owner {
			t.Fatalf("%s: successor %d of owner %d", k, next, owner)
		}
		if without[owner] == nil {
			without[owner] = r.Remove(r.Name(owner))
		}
		rest := without[owner]
		if got, want := r.Name(next), rest.Name(rest.Pick(k)); got != want {
			t.Fatalf("%s: successor %s, but removing %s moves it to %s", k, got, r.Name(owner), want)
		}
	}
	if s := NewRing(ringNames(1), 0).successor("site.test"); s != -1 {
		t.Errorf("one-replica ring: successor %d, want -1", s)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.successor("site-00001.example.test") }); allocs != 0 {
		t.Errorf("successor: %.1f allocations, want 0", allocs)
	}
}
