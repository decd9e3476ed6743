package stats

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// checkSource holds n draws of got to math/rand's stream for seed, one
// by one, alternating Uint64 and Int63 when mixed.
func checkSource(t *testing.T, got *source, seed int64, n int, mixed bool) {
	t.Helper()
	want := rand.NewSource(seed).(rand.Source64)
	for i := 1; i <= n; i++ {
		if mixed && i%2 == 0 {
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("seed %d: Int63 at draw %d = %d, math/rand %d", seed, i, g, w)
			}
			continue
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Fatalf("seed %d: Uint64 at draw %d = %d, math/rand %d", seed, i, g, w)
		}
	}
}

func TestSourceMatchesMathRand(t *testing.T) {
	const m = lehmerM
	seeds := []int64{
		0, 1, -1, 89482311, m, -m, 2 * m, -2 * m, 12345 * m, -12345 * m,
		m - 1, m + 1, 1 << 31, math.MinInt64, math.MaxInt64, DefaultSeed,
	}
	pick := rand.New(rand.NewSource(99))
	for i := 0; i < 200; i++ {
		seeds = append(seeds, int64(pick.Uint64()))
	}
	// 1,500 draws cross the lag (draw 274) and a full 607-word cycle.
	reused := newSource(7)
	for _, seed := range seeds {
		checkSource(t, newSource(seed), seed, 1500, false)
		checkSource(t, newSource(seed), seed, 700, true)
		// reused has materialised its math/rand source by now (from the
		// second seed on); Seed must put it back on the lazy path.
		reused.Seed(seed)
		if reused.n != 0 {
			t.Fatalf("seed %d: re-Seed left the source materialised", seed)
		}
		checkSource(t, reused, seed, 700, false)
	}
}

// The helpers math/rand.Rand derives from a source see the same stream
// through stats.Rand as through rand.New(rand.NewSource(seed)).
func TestRandMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, -3, DefaultSeed, 1 << 45} {
		got, want := NewRand(seed), rand.New(rand.NewSource(seed))
		for i := 0; i < 150; i++ { // > 273 draws in total
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d: Float64 %d: %v != %v", seed, i, g, w)
			}
			if g, w := got.Intn(1000+i), want.Intn(1000+i); g != w {
				t.Fatalf("seed %d: Intn %d: %v != %v", seed, i, g, w)
			}
			if g, w := got.NormFloat64(0, 1), want.NormFloat64(); g != w {
				t.Fatalf("seed %d: NormFloat64 %d: %v != %v", seed, i, g, w)
			}
		}
		got.Seed(seed + 1) // back to the lazy path
		want.Seed(seed + 1)
		gp, wp := got.Perm(40), want.Perm(40)
		gs, ws := make([]int, 40), make([]int, 40)
		got.Shuffle(40, func(i, j int) { gs[i], gs[j] = gs[j]+1, gs[i]+2 })
		want.Shuffle(40, func(i, j int) { ws[i], ws[j] = ws[j]+1, ws[i]+2 })
		for i := range gp {
			if gp[i] != wp[i] || gs[i] != ws[i] {
				t.Fatalf("seed %d: Perm/Shuffle differ at %d", seed, i)
			}
		}
		// Poisson is Knuth's method over Float64: same draws, same count.
		ref := &Rand{r: want}
		for i := 0; i < 50; i++ {
			if g, w := got.Poisson(6), ref.Poisson(6); g != w {
				t.Fatalf("seed %d: Poisson %d: %v != %v", seed, i, g, w)
			}
		}
	}
}

func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(-1), uint16(rngTap))
	f.Add(int64(lehmerM), uint16(rngTap+1))
	f.Add(DefaultSeed, uint16(2*rngLen))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		checkSource(t, newSource(seed), seed, int(n)%2048, seed&1 == 1)
	})
}

// Not parallel: AllocsPerRun reads a process-wide counter.
func TestSeedingDoesNotAllocateState(t *testing.T) {
	rn := NewRand(1)
	seed := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		seed++
		rn.Seed(seed)
		_ = rn.Float64() + rn.Float64() + rn.Float64() + rn.Float64()
	}); a != 0 {
		t.Errorf("Seed + 4 draws allocates %v times, want 0", a)
	}

	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f := NewRand(int64(i)).Fork("x")
		_ = f.Float64() + f.Float64() + f.Float64() + f.Float64()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 512 {
		t.Errorf("NewRand + Fork + 4 draws allocates %d B, want < 512 (a math/rand state alone is 4.9 KB)", per)
	}
}
