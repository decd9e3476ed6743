package runstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/scenario"
)

// testSpec is a tiny mixed world: adoption, managed uptake, blocking,
// and both compliant and non-compliant crawlers, so every semantic
// segment gets real content.
func testSpec(seed int64) scenario.Spec {
	return scenario.Spec{
		Name: "store-test", Seed: seed, Sites: 6, Months: 5, Start: "2023-08",
		Adoption: scenario.AdoptionSpec{Source: scenario.SourceCorpusOther, Multiplier: 8, PerAgentShare: 0.5},
		Crawlers: []scenario.CrawlerSpec{
			{Token: "GPTBot", Behavior: "compliant"},
			{Token: "Bytespider", Behavior: "fetch-ignore", Cadence: 2},
		},
		Manager:          scenario.ManagerSpec{Uptake: 0.5},
		Blocking:         scenario.BlockingSpec{Share: 0.5, StartMonth: 2, RefreshMonthly: true},
		MaxPagesPerCrawl: 3,
	}
}

// storeRun runs a spec through the observer pipeline into the store and
// returns the run id.
func storeRun(t *testing.T, st *Store, spec scenario.Spec) string {
	t.Helper()
	w, err := st.BeginScenario(NewMeta(KindScenario, spec.Name, spec.Seed, spec.CacheKey()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := scenario.RunTiered(context.Background(), spec, scenario.TierOptions{Workers: 2, Observer: w}); err != nil {
		w.Abort()
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return w.ID()
}

// TestDeterministicSegments is the store's core contract: two runs of
// the same (spec, seed) produce byte-identical semantic segments and an
// empty semantic diff.
func TestDeterministicSegments(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(7)
	idA := storeRun(t, st, spec)
	idB := storeRun(t, st, spec)
	if idA == idB {
		t.Fatalf("run ids collided: %s", idA)
	}

	for _, seg := range SemanticSegments {
		a, errA := os.ReadFile(filepath.Join(st.RunDir(idA), seg))
		b, errB := os.ReadFile(filepath.Join(st.RunDir(idB), seg))
		if os.IsNotExist(errA) && os.IsNotExist(errB) {
			continue // segment not produced by this run kind
		}
		if errA != nil || errB != nil {
			t.Fatalf("%s: %v / %v", seg, errA, errB)
		}
		if string(a) != string(b) {
			t.Errorf("segment %s differs between identical runs", seg)
		}
	}

	ra, err := st.LoadRun(idA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := st.LoadRun(idB)
	if err != nil {
		t.Fatal(err)
	}
	d := DiffRuns(ra, rb)
	if !d.Empty() {
		t.Errorf("identical runs produced a non-empty semantic diff: %+v", d)
	}
}

// TestForcedPolicyFlip pins both worlds with explicit adoption curves —
// nobody adopts vs everybody adopts at month 0 — and checks the diff
// reports exactly the expected per-site flips.
func TestForcedPolicyFlip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	none := testSpec(7)
	none.Adoption = scenario.AdoptionSpec{Curve: []float64{0}, PerAgentShare: 0.5}
	all := testSpec(7)
	all.Adoption = scenario.AdoptionSpec{Curve: []float64{1}, PerAgentShare: 0.5}

	ra, err := st.LoadRun(storeRun(t, st, none))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := st.LoadRun(storeRun(t, st, all))
	if err != nil {
		t.Fatal(err)
	}
	d := DiffRuns(ra, rb)
	if d.Empty() {
		t.Fatal("counterfactual pair produced an empty diff")
	}

	// The expected flips are exactly the plan differences: sites whose
	// adoptRoll clears the (0.98-capped) full-adoption curve flip from
	// never-adopts to month 0 and gain a style; blocker draws are
	// unchanged (same seed, same draw order).
	plansA, err := scenario.SitePlans(none)
	if err != nil {
		t.Fatal(err)
	}
	plansB, err := scenario.SitePlans(all)
	if err != nil {
		t.Fatal(err)
	}
	wantFlips := 0
	for i := range plansA {
		if plansA[i].AdoptMonth != plansB[i].AdoptMonth {
			wantFlips++
		}
	}
	if wantFlips == 0 {
		t.Fatal("counterfactual specs produced identical site plans")
	}
	if got := d.FlipTotals["adopt_month"]; got != wantFlips {
		t.Errorf("adopt_month flips = %d, want %d", got, wantFlips)
	}
	if got := d.FlipTotals["style"]; got != wantFlips {
		t.Errorf("style flips = %d, want %d", got, wantFlips)
	}
	if got := d.FlipTotals["blocker"]; got != 0 {
		t.Errorf("blocker flips = %d, want 0 (same seed)", got)
	}
	for _, f := range d.PolicyFlips {
		if f.Field == "adopt_month" && (f.A != "-1" || f.B != "0") {
			t.Errorf("site %d adopt_month flip %s -> %s, want -1 -> 0", f.Site, f.A, f.B)
		}
	}
	if len(d.MonthDeltas) == 0 {
		t.Error("expected month-metric deltas between no-adoption and full-adoption worlds")
	}
	// The compliant crawler's byte mix must shift once robots.txt
	// appears everywhere.
	if ra.Summary.TotalDisallowedBytes == rb.Summary.TotalDisallowedBytes &&
		ra.Summary.TotalVisits == rb.Summary.TotalVisits {
		t.Error("summaries identical across the counterfactual")
	}
}

// TestVerdictMigrationDiff checks the verdict table differ directly on
// synthetic runs, including tokens present on only one side.
func TestVerdictMigrationDiff(t *testing.T) {
	a := &Run{Meta: Meta{ID: "a"}, Verdicts: map[string]string{
		"GPTBot": "respects robots.txt", "Bytespider": "fetches but ignores robots.txt",
		"OldBot": "respects robots.txt",
	}}
	b := &Run{Meta: Meta{ID: "b"}, Verdicts: map[string]string{
		"GPTBot": "respects robots.txt", "Bytespider": "does not fetch robots.txt",
		"NewBot": "respects robots.txt",
	}}
	d := DiffRuns(a, b)
	want := []VerdictMigration{
		{Token: "Bytespider", From: "fetches but ignores robots.txt", To: "does not fetch robots.txt"},
		{Token: "NewBot", From: Absent, To: "respects robots.txt"},
		{Token: "OldBot", From: "respects robots.txt", To: Absent},
	}
	if len(d.VerdictMigrations) != len(want) {
		t.Fatalf("got %d migrations, want %d: %+v", len(d.VerdictMigrations), len(want), d.VerdictMigrations)
	}
	for i, m := range d.VerdictMigrations {
		if m != want[i] {
			t.Errorf("migration[%d] = %+v, want %+v", i, m, want[i])
		}
	}
}

// TestConcurrentWriters exercises the store's locking: many goroutines
// persisting runs into one store must all commit, with distinct ids and
// a complete manifest. Run under -race.
func TestConcurrentWriters(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			mix := DecisionMix{Issued: int64(100 + i), Allow: int64(90 + i), Deny: 5, Block: 5, Batch: 1, Wire: "json"}
			id, err := st.SaveLoadgen(NewMeta(KindLoadgen, fmt.Sprintf("w%d", i), int64(i), fmt.Sprintf("spec-%d", i)), mix, nil)
			ids[i], errs[i] = id, err
		}(i)
	}
	wg.Wait()
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("writer %d: %v", i, errs[i])
		}
		if seen[ids[i]] {
			t.Fatalf("duplicate run id %s", ids[i])
		}
		seen[ids[i]] = true
	}
	runs, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != n {
		t.Fatalf("manifest holds %d runs, want %d", len(runs), n)
	}
}

// TestResolveAndGC covers ref resolution and retention.
func TestResolveAndGC(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := st.SaveLoadgen(NewMeta(KindLoadgen, "gc", int64(i), fmt.Sprintf("gc-%d", i)),
			DecisionMix{Issued: 1, Allow: 1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	if m, err := st.Resolve(ids[1]); err != nil || m.ID != ids[1] {
		t.Fatalf("Resolve(exact) = %v, %v", m.ID, err)
	}
	latest, err := st.Resolve("latest")
	if err != nil {
		t.Fatal(err)
	}
	if latest.ID != ids[2] {
		t.Fatalf("Resolve(latest) = %s, want %s", latest.ID, ids[2])
	}
	if _, err := st.Resolve("no-such-run"); err == nil {
		t.Fatal("Resolve of unknown ref succeeded")
	}

	removed, err := st.GC(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("GC removed %d runs, want 2: %v", len(removed), removed)
	}
	runs, err := st.Runs()
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].ID != latest.ID {
		t.Fatalf("after GC: %+v, want only %s", runs, latest.ID)
	}
	if _, err := os.Stat(st.RunDir(removed[0])); !os.IsNotExist(err) {
		t.Fatalf("gc'd run dir still exists: %v", err)
	}
}

// TestMixAndBenchDiff covers the loadgen segments end to end: decision
// mixes diff semantically, bench snapshots diff advisorily.
func TestMixAndBenchDiff(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	bench := []byte(`{"schema":"repro-benchsnap/1","benchmarks":{"policyd_loadgen_inproc":{"ns_per_op":100,"allocs_per_op":0}}}`)
	benchB := []byte(`{"schema":"repro-benchsnap/1","benchmarks":{"policyd_loadgen_inproc":{"ns_per_op":50,"allocs_per_op":0}}}`)
	idA, err := st.SaveLoadgen(NewMeta(KindLoadgen, "mix", 1, "mix-spec"),
		DecisionMix{Issued: 100, Allow: 80, Deny: 15, Block: 5, Batch: 1, Wire: "json"}, bench)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := st.SaveLoadgen(NewMeta(KindLoadgen, "mix", 1, "mix-spec"),
		DecisionMix{Issued: 100, Allow: 70, Deny: 20, Block: 10, Batch: 1, Wire: "json"}, benchB)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := st.LoadRun(idA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := st.LoadRun(idB)
	if err != nil {
		t.Fatal(err)
	}
	d := DiffRuns(ra, rb)
	if len(d.MixDeltas) != 3 {
		t.Fatalf("mix deltas = %+v, want allow/deny/block shifts", d.MixDeltas)
	}
	if len(d.BenchDeltas) != 1 || d.BenchDeltas[0].Speedup != 2 {
		t.Fatalf("bench deltas = %+v, want one 2.00x entry", d.BenchDeltas)
	}
	// Bench drift alone must not make the diff semantically non-empty.
	rb.Decisions = ra.Decisions
	if d := DiffRuns(ra, rb); !d.Empty() {
		t.Errorf("bench-only difference counted as semantic: %+v", d)
	}
}

// TestLoadRunDirRejectsNonRun guards the golden-dir path in CI: a
// directory without meta.json is an explicit error, not a zero Run.
func TestLoadRunDirRejectsNonRun(t *testing.T) {
	if _, err := LoadRunDir(t.TempDir()); err == nil {
		t.Fatal("LoadRunDir on an empty directory succeeded")
	}
}
