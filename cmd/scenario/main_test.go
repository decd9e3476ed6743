package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestListBuiltins(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(&out, &errb, []string{"-list"}); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"baseline-replay", "rogue-crawler", "high-adoption"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("-list missing %s:\n%s", want, out.String())
		}
	}
}

func TestRunSmokeSpec(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(&out, &errb, []string{"-spec", "testdata/smoke.json", "-workers", "4"}); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"scenario ci-smoke", "crawler verdicts", "Scrapezilla"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunBuiltinJSON(t *testing.T) {
	var out, errb bytes.Buffer
	code := run(&out, &errb, []string{"-builtin", "baseline-replay", "-format", "json"})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	var res struct {
		Verdicts map[string]int
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("not JSON: %v", err)
	}
	if len(res.Verdicts) != 9 {
		t.Fatalf("baseline observed %d crawlers, want 9", len(res.Verdicts))
	}
}

// TestTieredMatchesFullJSON is the CLI-level parity check CI repeats:
// the JSON an all-cold run emits is byte-identical to the all-hot run's
// (smoke.json has 8 sites), at a different worker count.
func TestTieredMatchesFullJSON(t *testing.T) {
	var hot, cold, errb bytes.Buffer
	if code := run(&hot, &errb, []string{"-spec", "testdata/smoke.json", "-format", "json", "-hot", "8"}); code != 0 {
		t.Fatalf("hot: exit %d: %s", code, errb.String())
	}
	args := []string{"-spec", "testdata/smoke.json", "-format", "json", "-hot", "0", "-workers", "4"}
	if code := run(&cold, &errb, args); code != 0 {
		t.Fatalf("cold: exit %d: %s", code, errb.String())
	}
	if hot.String() != cold.String() {
		t.Fatalf("-hot 0 JSON diverges from -hot 8:\n%s\nvs\n%s", cold.String(), hot.String())
	}
}

func TestTieredTextReportsStats(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(&out, &errb, []string{"-spec", "testdata/smoke.json", "-hot", "2"}); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	for _, want := range []string{"tiered:", "site-months", "wave classes", "B/site columnar",
		"phases, summed over workers: plan ", " ms, hot ", " ms, cold ", " ms; merge "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("tier footer missing %q:\n%s", want, out.String())
		}
	}
}

func TestBadInvocations(t *testing.T) {
	cases := [][]string{
		{},
		{"-spec", "x.json", "-builtin", "baseline-replay"},
		{"-builtin", "no-such-world"},
		{"-spec", "testdata/does-not-exist.json"},
		{"-builtin", "baseline-replay", "-format", "yaml"},
		{"-builtin", "baseline-replay", "-sites", "-3"},
		// Shrinking the window below the rogue's arrival month must fail
		// loudly instead of silently simulating a rogue-free world.
		{"-builtin", "rogue-crawler", "-months", "10"},
		{"-dump", "no-such-world"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if code := run(&out, &errb, args); code == 0 {
			t.Errorf("args %v: expected failure", args)
		}
	}
}

func TestDumpBuiltin(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(&out, &errb, []string{"-dump", "high-adoption"}); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if !json.Valid(out.Bytes()) || !strings.Contains(out.String(), "\"multiplier\": 4") {
		t.Fatalf("dump output wrong:\n%s", out.String())
	}
}
