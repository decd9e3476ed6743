package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goldenDir = "testdata/golden"

// copyGolden clones the golden run dir into a temp dir so tests can
// tamper with segments.
func copyGolden(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	entries, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
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
	if !strings.Contains(stdout.String(), "kind=scenario") {
		t.Errorf("show output missing run kind:\n%s", stdout.String())
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
