package stats

import "testing"

func TestRandDeterminism(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

// TestSeedMatchesNewRand: a reseeded source — mid-stream, after mixed
// draws — continues exactly as a fresh NewRand of the same seed does.
func TestSeedMatchesNewRand(t *testing.T) {
	reused := NewRand(1)
	for _, seed := range []int64{42, -7, 0, 1 << 40} {
		reused.Float64()
		reused.r.NormFloat64()
		reused.Seed(seed)
		fresh := NewRand(seed)
		for i := 0; i < 100; i++ {
			if a, b := reused.Float64(), fresh.Float64(); a != b {
				t.Fatalf("seed %d: draw %d: reseeded %v, fresh %v", seed, i, a, b)
			}
		}
	}
}

func TestForkIndependence(t *testing.T) {
	parent := NewRand(7)
	f1 := parent.Fork("alpha")
	parent2 := NewRand(7)
	f2 := parent2.Fork("alpha")
	for i := 0; i < 50; i++ {
		if f1.Int63() != f2.Int63() {
			t.Fatalf("fork with same lineage diverged at draw %d", i)
		}
	}
	// Different names must give different streams (overwhelmingly likely).
	g1 := NewRand(7).Fork("alpha")
	g2 := NewRand(7).Fork("beta")
	same := 0
	for i := 0; i < 20; i++ {
		if g1.Int63() == g2.Int63() {
			same++
		}
	}
	if same == 20 {
		t.Fatal("differently named forks produced identical streams")
	}
}

func TestBoolProbability(t *testing.T) {
	rn := NewRand(1)
	n := 20000
	hits := 0
	for i := 0; i < n; i++ {
		if rn.Bool(0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if p < 0.27 || p > 0.33 {
		t.Fatalf("Bool(0.3) empirical rate %.3f out of tolerance", p)
	}
}

func TestWeightedIndex(t *testing.T) {
	rn := NewRand(2)
	w := []float64{1, 0, 3}
	counts := make([]int, 3)
	for i := 0; i < 40000; i++ {
		counts[rn.WeightedIndex(w)]++
	}
	if counts[1] != 0 {
		t.Fatalf("zero-weight index sampled %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if ratio < 2.7 || ratio > 3.3 {
		t.Fatalf("weight ratio %.2f, want ~3", ratio)
	}
}

func TestWeightedIndexDegenerate(t *testing.T) {
	rn := NewRand(3)
	if got := rn.WeightedIndex([]float64{0, 0}); got != 0 {
		t.Fatalf("all-zero weights: got %d, want 0", got)
	}
	if got := rn.WeightedIndex([]float64{-1, -2, 5}); got != 2 {
		t.Fatalf("negative weights: got %d, want 2", got)
	}
}

func TestSampleWithoutReplacement(t *testing.T) {
	rn := NewRand(5)
	got := rn.SampleWithoutReplacement(10, 4)
	if len(got) != 4 {
		t.Fatalf("len=%d want 4", len(got))
	}
	seen := map[int]bool{}
	for _, i := range got {
		if i < 0 || i >= 10 {
			t.Fatalf("index %d out of range", i)
		}
		if seen[i] {
			t.Fatalf("duplicate index %d", i)
		}
		seen[i] = true
	}
	if got := rn.SampleWithoutReplacement(3, 10); len(got) != 3 {
		t.Fatalf("k>n: len=%d want 3", len(got))
	}
}

func TestPercent(t *testing.T) {
	if Percent(1, 0) != 0 {
		t.Fatal("division by zero must yield 0")
	}
	if got := Percent(25, 100); got != 25 {
		t.Fatalf("Percent(25,100)=%v", got)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("empty input must yield 0")
	}
	if xs := []float64{3, 1, 2}; Mean(xs) != 2 {
		t.Fatalf("Mean=%v", Mean(xs))
	}
}

func TestSeries(t *testing.T) {
	var empty Series
	if empty.Last().Value != 0 || empty.Max() != 0 || empty.Sparkline() != "" {
		t.Fatal("empty series accessors must be zero-valued")
	}
	s := Series{Name: "x", Points: []Point{{Value: 1}, {Value: 5}, {Value: 3}}}
	if s.Last().Value != 3 {
		t.Fatalf("Last=%v", s.Last().Value)
	}
	if s.Max() != 5 {
		t.Fatalf("Max=%v", s.Max())
	}
	spark := s.Sparkline()
	if len([]rune(spark)) != 3 {
		t.Fatalf("sparkline %q should have 3 runes", spark)
	}
}

func TestSparklineFlat(t *testing.T) {
	s := Series{Points: []Point{{Value: 2}, {Value: 2}}}
	if got := s.Sparkline(); got != "▁▁" {
		t.Fatalf("flat sparkline = %q", got)
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Inc("b")
	c.Inc("a")
	c.Inc("a")
	c.Add("c", 5)
	if c.Get("a") != 2 || c.Get("missing") != 0 {
		t.Fatal("Get mismatch")
	}
	if c.Len() != 3 {
		t.Fatalf("Len=%d", c.Len())
	}
	sorted := c.Sorted()
	if sorted[0].Key != "c" || sorted[1].Key != "a" || sorted[2].Key != "b" {
		t.Fatalf("Sorted order wrong: %+v", sorted)
	}
}

func TestPick(t *testing.T) {
	rn := NewRand(8)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		seen[Pick(rn, xs)] = true
	}
	if len(seen) != 3 {
		t.Fatalf("Pick never chose some element: %v", seen)
	}
}
