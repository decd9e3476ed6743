package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const goldenDir = "testdata/golden"

// copyGolden clones the golden run dir into a temp dir so tests can
// tamper with segments.
func copyGolden(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	copyRun(t, goldenDir, dir)
	return dir
}

// copyRun copies the run dir src into dir.
func copyRun(t *testing.T, src, dir string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDiffGoldenAgainstItself: a run diffed against itself is
// semantically empty and passes every gate.
func TestDiffGoldenAgainstItself(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"diff", goldenDir, goldenDir, "-fail-on", "any"})
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "semantically identical") {
		t.Errorf("output missing identical marker:\n%s", stdout.String())
	}
}

// TestDiffGateTripsOnMigration: flipping one verdict in a copy must
// trip -fail-on migrations and name the token.
func TestDiffGateTripsOnMigration(t *testing.T) {
	tampered := copyGolden(t)
	vpath := filepath.Join(tampered, "verdicts.json")
	data, err := os.ReadFile(vpath)
	if err != nil {
		t.Fatal(err)
	}
	var verdicts map[string]string
	if err := json.Unmarshal(data, &verdicts); err != nil {
		t.Fatal(err)
	}
	if len(verdicts) == 0 {
		t.Fatal("golden verdict table is empty")
	}
	for tok := range verdicts {
		verdicts[tok] = "does not fetch robots.txt"
	}
	out, err := json.Marshal(verdicts)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(vpath, out, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"diff", goldenDir, tampered, "-fail-on", "migrations"})
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "verdict migrations") {
		t.Errorf("gate message missing: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "Verdict migrations") {
		t.Errorf("rendered diff missing migration section:\n%s", stdout.String())
	}
}

// TestDiffRejectsTruncatedRun: a golden copy that lost five of its
// eight months fails to load, so CI's gate flags exit 1 with the
// reason and print no diff rather than a month_count delta.
func TestDiffRejectsTruncatedRun(t *testing.T) {
	truncated := copyGolden(t)
	mpath := filepath.Join(truncated, "months.ndjson")
	data, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	months := strings.SplitAfter(string(data), "\n")
	if err := os.WriteFile(mpath, []byte(strings.Join(months[:3], "")), 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"diff", goldenDir, truncated, "-fail-on", "migrations"})
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a diff of a damaged run:\n%s", stdout.String())
	}
	if !strings.Contains(stderr.String(), "months.ndjson") {
		t.Errorf("error does not name the segment: %s", stderr.String())
	}
}

// TestDiffJSONFormat: -format json round-trips through encoding/json.
func TestDiffJSONFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"diff", goldenDir, goldenDir, "-format", "json"})
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	if _, ok := doc["a"]; !ok {
		t.Error("JSON diff missing run metadata")
	}
}

// TestShowGolden: show renders a standalone run directory.
func TestShowGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"show", goldenDir})
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	for _, want := range []string{
		"kind=scenario",
		"verdicts: does not fetch robots.txt=1 fetches but ignores robots.txt=1 respects robots.txt=2",
	} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("show output lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestUsageErrors: missing refs and unknown commands exit 2.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"diff", "only-one-ref"},
		{"frobnicate"},
		{"list"}, // no -store
	} {
		var stdout, stderr bytes.Buffer
		if code := run(&stdout, &stderr, args); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
}

// TestListGoldenStore: list prints one line per manifest entry, in
// manifest order, under a header — here a store holding copies of both
// golden runs.
func TestListGoldenStore(t *testing.T) {
	store := t.TempDir()
	var manifest bytes.Buffer
	for _, src := range []string{goldenDir, "testdata/golden-fleet"} {
		data, err := os.ReadFile(filepath.Join(src, "meta.json"))
		if err != nil {
			t.Fatal(err)
		}
		var meta struct{ ID string }
		if err := json.Unmarshal(data, &meta); err != nil {
			t.Fatal(err)
		}
		dir := filepath.Join(store, meta.ID)
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		copyRun(t, src, dir)
		if err := json.Compact(&manifest, data); err != nil {
			t.Fatal(err)
		}
		manifest.WriteByte('\n')
	}
	if err := os.WriteFile(filepath.Join(store, "manifest.ndjson"), manifest.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"-store", store, "list"}); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	want := [][]string{
		{"ID", "KIND", "NAME", "SPEC", "SEED", "REV", "SITES", "MONTHS", "VISITS", "RECORDS"},
		{"20260808T102248Z-scenario-4ccc5a2c", "scenario", "ci-smoke", "4ccc5a2c861f", "7", "8a6713cbd9e9", "8", "8", "160", "0"},
		{"20260808T111855Z-loadgen-231a5437", "loadgen", "fleet-golden", "231a543784ef", "20251028", "54706a8380fc", "0", "0", "0", "20000"},
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(want) {
		t.Fatalf("list printed %d lines, want %d:\n%s", len(lines), len(want), stdout.String())
	}
	for i, line := range lines {
		if got := strings.Fields(line); strings.Join(got, " ") != strings.Join(want[i], " ") {
			t.Errorf("line %d = %q, want the fields %q", i, line, want[i])
		}
	}
}

// TestDiffFlipTotals: a copy of the golden run whose site plans differ
// — every blocker toggled, one site adopting another style and one in
// another month — diffs to one flip row each and the per-field totals,
// sorted by field.
func TestDiffFlipTotals(t *testing.T) {
	tampered := copyGolden(t)
	spath := filepath.Join(tampered, "sites.ndjson")
	data, err := os.ReadFile(spath)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sites := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var site map[string]any
		if err := json.Unmarshal([]byte(line), &site); err != nil {
			t.Fatal(err)
		}
		site["blocker"] = site["blocker"] != true
		switch site["site"] {
		case 2.0:
			site["style"] = "wildcard"
		case 4.0:
			site["adopt_month"] = 1
		}
		line, err := json.Marshal(site)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(append(line, '\n'))
		sites++
	}
	if err := os.WriteFile(spath, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run(&stdout, &stderr, []string{"diff", goldenDir, tampered}); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	got := stdout.String()
	for _, want := range []string{
		fmt.Sprintf("Policy/blocker flips (%d)", sites+2),
		fmt.Sprintf("(totals by field: adopt_month=1 blocker=%d style=1)", sites),
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diff output lacks %q:\n%s", want, got)
		}
	}
}

// TestGateNames: every -fail-on name passes a run diffed against
// itself; the advisory sections are not gate names.
func TestGateNames(t *testing.T) {
	for _, dir := range []string{goldenDir, "testdata/golden-fleet"} {
		var stdout, stderr bytes.Buffer
		code := run(&stdout, &stderr, []string{"diff", dir, dir, "-fail-on", "migrations,months,flips,mix,quotas,experiments,any"})
		if code != 0 {
			t.Errorf("%s: exit %d, stderr: %s", dir, code, stderr.String())
		}
	}
	for _, cat := range []string{"bench", "metrics", "nope"} {
		var stdout, stderr bytes.Buffer
		if code := run(&stdout, &stderr, []string{"diff", goldenDir, goldenDir, "-fail-on", cat}); code != 2 {
			t.Errorf("-fail-on %s: exit %d, want 2", cat, code)
		}
	}
}

// TestDiffGateTripsOnQuotaRate: a fleet golden copy whose limiter rate
// moved from 0 to 0.5 trips -fail-on quotas and shows both rates.
func TestDiffGateTripsOnQuotaRate(t *testing.T) {
	tampered := t.TempDir()
	copyRun(t, "testdata/golden-fleet", tampered)
	qpath := filepath.Join(tampered, "quotas.json")
	data, err := os.ReadFile(qpath)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Replace(data, []byte(`"rate": 0,`), []byte(`"rate": 0.5,`), 1)
	if err := os.WriteFile(qpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(&stdout, &stderr, []string{"diff", "testdata/golden-fleet", tampered, "-fail-on", "mix,quotas"})
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "1 tenant quota shifts") {
		t.Errorf("gate message missing: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "Tenant quota shifts (1)") ||
		!regexp.MustCompile(`\(limiter\)\s+rate\s+0\s+0\.5\s+\+0\.5`).MatchString(stdout.String()) {
		t.Errorf("rendered diff lacks the rate shift:\n%s", stdout.String())
	}
}
