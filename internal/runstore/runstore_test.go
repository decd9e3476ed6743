package runstore

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
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

// storeRun runs a spec and saves the finished run into the store,
// returning the run id.
func storeRun(t *testing.T, st *Store, spec scenario.Spec) string {
	t.Helper()
	res, err := scenario.RunTiered(context.Background(), spec, scenario.TierOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.SaveScenario(NewMeta(KindScenario, spec.Name, spec.Seed, spec.CacheKey()), res)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// semanticSegments are the run-directory files covered by the
// determinism contract: the same (spec, seed, rev) must reproduce them
// byte for byte. meta.json (timestamp), metrics.json (wall-clock
// histograms), and bench.json (measured performance) are attribution
// segments and excluded.
var semanticSegments = []string{
	specFile, monthsFile, verdictsFile, sitesFile,
	summaryFile, experimentsFile, decisionsFile, quotasFile,
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

	for _, seg := range semanticSegments {
		a, errA := os.ReadFile(filepath.Join(st.runDir(idA), seg))
		b, errB := os.ReadFile(filepath.Join(st.runDir(idB), seg))
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
	flips := section(t, d, "flips")
	if got := flips.Totals["adopt_month"]; got != wantFlips {
		t.Errorf("adopt_month flips = %d, want %d", got, wantFlips)
	}
	if got := flips.Totals["style"]; got != wantFlips {
		t.Errorf("style flips = %d, want %d", got, wantFlips)
	}
	if got := flips.Totals["blocker"]; got != 0 {
		t.Errorf("blocker flips = %d, want 0 (same seed)", got)
	}
	for _, f := range flips.Deltas {
		if f.Field == "adopt_month" && (f.A != "-1" || f.B != "0") {
			t.Errorf("site %s adopt_month flip %s -> %s, want -1 -> 0", f.Key, f.A, f.B)
		}
	}
	if section(t, d, "months").Total == 0 {
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
	got := section(t, DiffRuns(a, b), "migrations").Deltas
	want := []Delta{
		{Key: "Bytespider", Field: "verdict", A: "fetches but ignores robots.txt", B: "does not fetch robots.txt"},
		{Key: "OldBot", Field: "verdict", A: "respects robots.txt", B: absent},
		{Key: "NewBot", Field: "verdict", A: absent, B: "respects robots.txt"},
	}
	if !slices.Equal(got, want) {
		t.Errorf("migrations = %+v, want %+v", got, want)
	}
}

// TestExperimentChangesDiff: an experiment whose stored line changed
// reads as two digests, one stored in a single run as a digest against
// (absent).
func TestExperimentChangesDiff(t *testing.T) {
	rec := func(id, line string) ExperimentRecord { return ExperimentRecord{ID: id, Raw: []byte(line)} }
	a := &Run{Experiments: []ExperimentRecord{rec("table1", `{"ID":"table1","n":1}`), rec("table2", `{"ID":"table2"}`)}}
	b := &Run{Experiments: []ExperimentRecord{rec("table1", `{"ID":"table1","n":2}`), rec("figure7", `{"ID":"figure7"}`)}}
	got := section(t, DiffRuns(a, b), "experiments").Deltas
	digest := func(r *Run, i int) string { return experimentView(r)[i].fields[0].value }
	want := []Delta{
		{Key: "table1", Field: "output", A: digest(a, 0), B: digest(b, 0)},
		{Key: "table2", Field: "output", A: digest(a, 1), B: absent},
		{Key: "figure7", Field: "output", A: absent, B: digest(b, 1)},
	}
	if !slices.Equal(got, want) || want[0].A == want[0].B || !strings.HasPrefix(want[0].A, "sha256:") {
		t.Errorf("experiment deltas = %+v, want %+v", got, want)
	}
}

// section returns d's section of the named category.
func section(t *testing.T, d *Diff, name string) *Section {
	t.Helper()
	for i := range d.Sections {
		if d.Sections[i].Name == name {
			return &d.Sections[i]
		}
	}
	t.Fatalf("diff has no %s section", name)
	return nil
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
			id, err := st.SaveLoadgen(NewMeta(KindLoadgen, fmt.Sprintf("w%d", i), int64(i), fmt.Sprintf("spec-%d", i)), mix, nil, nil)
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
			DecisionMix{Issued: 1, Allow: 1}, nil, nil)
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
	if _, err := os.Stat(st.runDir(removed[0])); !os.IsNotExist(err) {
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
		DecisionMix{Issued: 100, Allow: 80, Deny: 15, Block: 5, Batch: 1, Wire: "json"}, nil, bench)
	if err != nil {
		t.Fatal(err)
	}
	idB, err := st.SaveLoadgen(NewMeta(KindLoadgen, "mix", 1, "mix-spec"),
		DecisionMix{Issued: 100, Allow: 70, Deny: 20, Block: 10, Batch: 1, Wire: "json"}, nil, benchB)
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
	if mix := section(t, d, "mix"); mix.Total != 3 {
		t.Fatalf("mix deltas = %+v, want allow/deny/block shifts", mix.Deltas)
	}
	want := []Delta{{Key: "policyd_loadgen_inproc", Field: "ns_per_op", A: "100", B: "50"}}
	if got := section(t, d, "bench").Deltas; !slices.Equal(got, want) {
		t.Fatalf("bench deltas = %+v, want %+v", got, want)
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

// TestSaveExperiments covers the experiment save path: two saves of
// the same results write byte-identical experiments.ndjson segments,
// one line per result in registration order, and diff empty.
func TestSaveExperiments(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.QuickConfig()
	ids := []string{"table1", "table2", "survey-headline"}
	results, err := core.RunAll(context.Background(), cfg, core.Options{Parallelism: 2, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	var runs []*Run
	var segs [][]byte
	for range 2 {
		id, err := st.SaveExperiments(NewMeta(KindExperiments, "test", cfg.Seed, strings.Join(ids, ",")), results)
		if err != nil {
			t.Fatal(err)
		}
		r, err := st.LoadRun(id)
		if err != nil {
			t.Fatal(err)
		}
		if r.Meta.Records != len(results) {
			t.Errorf("meta records = %d, want %d", r.Meta.Records, len(results))
		}
		if len(r.Experiments) != len(ids) {
			t.Fatalf("loaded %d experiment records, want %d", len(r.Experiments), len(ids))
		}
		for i, rec := range r.Experiments {
			if rec.ID != ids[i] {
				t.Errorf("record %d is %q, want %q", i, rec.ID, ids[i])
			}
		}
		seg, err := os.ReadFile(filepath.Join(r.Dir, experimentsFile))
		if err != nil {
			t.Fatal(err)
		}
		runs, segs = append(runs, r), append(segs, seg)
	}
	if !bytes.Equal(segs[0], segs[1]) {
		t.Error("experiments.ndjson differs between two saves of the same results")
	}
	if d := DiffRuns(runs[0], runs[1]); !d.Empty() {
		t.Errorf("two saves of the same results diff non-empty: %+v", d)
	}
}

// TestFailedSaveLeavesNothing: a save whose segment cannot be written
// (NaN has no JSON encoding) returns the error and leaves neither a run
// directory nor a manifest line behind.
func TestFailedSaveLeavesNothing(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = st.SaveLoadgen(NewMeta(KindLoadgen, "nan", 1, "nan"),
		DecisionMix{Issued: 1, Allow: 1}, &QuotaAccounting{Rate: math.NaN()}, nil)
	if err == nil {
		t.Fatal("SaveLoadgen with a NaN quota rate succeeded")
	}
	entries, err := os.ReadDir(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("failed save left %s behind", e.Name())
	}
	if runs, err := st.Runs(); err != nil || len(runs) != 0 {
		t.Errorf("Runs() = %v, %v; want none", runs, err)
	}
}

// TestLoadRejectsTruncatedSegments: a copy of the scenario golden with
// a segment cut short disagrees with meta.json (or summary.json) and
// must not load as a shorter run.
func TestLoadRejectsTruncatedSegments(t *testing.T) {
	for _, tc := range []struct {
		seg  string
		keep int
	}{
		{monthsFile, 3},
		{sitesFile, 2},
	} {
		t.Run(tc.seg, func(t *testing.T) {
			dir := t.TempDir()
			entries, err := os.ReadDir(goldenDirs[0])
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				data, err := os.ReadFile(filepath.Join(goldenDirs[0], e.Name()))
				if err != nil {
					t.Fatal(err)
				}
				if e.Name() == tc.seg {
					recs := strings.SplitAfter(string(data), "\n")
					data = []byte(strings.Join(recs[:tc.keep], ""))
				}
				if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			_, err = LoadRunDir(dir)
			if err == nil {
				t.Fatalf("golden with %s cut to %d lines loaded", tc.seg, tc.keep)
			}
			if !strings.Contains(err.Error(), tc.seg) || !strings.Contains(err.Error(), fmt.Sprint(tc.keep)) {
				t.Errorf("error %q does not name %s and its %d lines", err, tc.seg, tc.keep)
			}
		})
	}
}

// TestRenderMarkdownEscapesPipes: a tenant is a client-supplied agent
// string, so one holding '|' must stay one cell, and every row of the
// quota table keeps the header's column count.
func TestRenderMarkdownEscapesPipes(t *testing.T) {
	d := &Diff{Sections: []Section{{Name: "quotas", Title: "Tenant quota shifts", Total: 2, Deltas: []Delta{
		{Key: "a|b", Field: "granted", A: "1", B: "2"},
		{Key: "GPTBot", Field: "throttled", A: "3", B: "0"},
	}}}}
	var buf bytes.Buffer
	if err := d.Render(&buf, "markdown"); err != nil {
		t.Fatal(err)
	}
	// columns counts the cells of a "| … |" row: its unescaped pipes
	// minus one.
	columns := func(line string) int {
		n := 0
		for i := 0; i < len(line); i++ {
			switch line[i] {
			case '\\':
				i++
			case '|':
				n++
			}
		}
		return n - 1
	}
	var rows []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(line, "|") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 4 { // header, separator, two tenants
		t.Fatalf("markdown quota table has %d rows, want 4:\n%s", len(rows), buf.String())
	}
	for _, r := range rows {
		if got, want := columns(r), columns(rows[0]); got != want {
			t.Errorf("row %q has %d columns, header %d", r, got, want)
		}
	}
	if !strings.Contains(buf.String(), `| a\|b |`) {
		t.Errorf("tenant a|b not escaped:\n%s", buf.String())
	}
}

// TestQuotaRateRendersFloats: the limiter's rate and burst are floats,
// and a shift between two fractional rates renders both values.
func TestQuotaRateRendersFloats(t *testing.T) {
	a := &Run{Quotas: &QuotaAccounting{Rate: 0.2, Burst: 4}}
	b := &Run{Quotas: &QuotaAccounting{Rate: 0.7, Burst: 4}}
	var buf bytes.Buffer
	if err := DiffRuns(a, b).Render(&buf, FormatText); err != nil {
		t.Fatal(err)
	}
	want := "(limiter) rate 0.2 0.7 +0.5"
	for _, line := range strings.Split(buf.String(), "\n") {
		if strings.Join(strings.Fields(line), " ") == want {
			return
		}
	}
	t.Errorf("diff lacks the row %q:\n%s", want, buf.String())
}

// TestEverySectionCapped: any category, not only flips, stores at most
// maxStoredDeltas deltas and still counts and renders its full total.
func TestEverySectionCapped(t *testing.T) {
	const n = maxStoredDeltas + 500
	a := &Run{Verdicts: map[string]string{}}
	b := &Run{Verdicts: map[string]string{}}
	for i := range n {
		tok := fmt.Sprintf("Bot%04d", i)
		a.Verdicts[tok], b.Verdicts[tok] = "respects robots.txt", "does not fetch robots.txt"
	}
	d := DiffRuns(a, b)
	s := section(t, d, "migrations")
	if len(s.Deltas) != maxStoredDeltas || s.Total != n || s.Totals["verdict"] != n {
		t.Fatalf("stored %d deltas, total %d, totals %v; want %d of %d", len(s.Deltas), s.Total, s.Totals, maxStoredDeltas, n)
	}
	var buf bytes.Buffer
	if err := d.Render(&buf, FormatText); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("Verdict migrations (%d)", n),
		fmt.Sprintf("(%d shown of %d; totals by field: verdict=%d)", maxStoredDeltas, n, n),
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("rendered diff lacks %q", want)
		}
	}
}
