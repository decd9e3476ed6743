package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// TestRunSurveysText runs the §5 crawler audit and the §6 blocking
// surveys through the text sink: each section in registration order,
// then the run footer.
func TestRunSurveysText(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"-quick", "-only", "table1,active-assistants,active-blocking,figure7"}
	if code := run(&out, &errb, args); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if errb.Len() != 0 {
		t.Errorf("stderr: %s", errb.String())
	}
	rest := out.String()
	for _, want := range []string{
		"=== table1 — ", "GPTBot", "respects robots.txt",
		"=== active-assistants — ", "distinct crawlers",
		"=== active-blocking — ", "inherently block automation",
		"=== figure7 — ", "Block AI off",
		"(4 experiments completed in ",
	} {
		i := strings.Index(rest, want)
		if i < 0 {
			t.Fatalf("output lacks %q after the previous section:\n%s", want, out.String())
		}
		rest = rest[i+len(want):]
	}
}

func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(&out, &errb, []string{"-list"}); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	if got, want := strings.Count(out.String(), "\n"), len(core.Experiments()); got != want {
		t.Fatalf("-list printed %d lines, want %d:\n%s", got, want, out.String())
	}
}

func TestHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(&out, &errb, []string{"-h"}); code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	if !strings.HasPrefix(errb.String(), "Usage of ") || !strings.Contains(errb.String(), "-only string") {
		t.Fatalf("-h printed:\n%s", errb.String())
	}
}

// TestBadInvocations: a bad flag, an unknown experiment id and an
// unknown format run nothing and exit 2.
func TestBadInvocations(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"},
		{"-quick", "-only", "table1,no-such-experiment"},
		{"-quick", "-only", "table1", "-format", "yaml"},
	} {
		var out, errb bytes.Buffer
		if code := run(&out, &errb, args); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote to stdout:\n%s", args, out.String())
		}
		if errb.Len() == 0 {
			t.Errorf("%v: nothing on stderr", args)
		}
	}
}
