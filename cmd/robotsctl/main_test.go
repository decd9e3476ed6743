package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// figure1 is the example robots.txt from Figure 1 of the paper.
const figure1 = `# An example robots.txt file
User-agent: Googlebot
Allow: /

User-agent: ChatGPT-User
User-agent: GPTBot
Disallow: /

User-agent: *
Disallow: /secret/
`

// typos has two authoring mistakes and one warning.
const typos = `User-agent: GPTBot
Disalow: /
User-agent *
Crawl-delay: x
`

func TestCommands(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.txt", figure1)
	newPath := write("new.txt", "User-agent: GPTBot\nAllow: /\n")

	for _, tc := range []struct {
		args  []string
		stdin string
		code  int
		out   string
	}{
		{[]string{"lint"}, figure1, 0, "groups: 3, rules: 3, mistakes: 0\n"},
		{[]string{"lint"}, typos, 1, "groups: 1, rules: 1, mistakes: 2\n" +
			"! line 2: directive-typo (\"Disalow\")\n" +
			"! line 3: missing-colon (\"User-agent *\")\n" +
			"  line 4: crawl-delay-used (\"x\")\n"},
		{[]string{"check", "-agent", "Googlebot", "-path", "/gallery/"}, figure1, 0,
			"Googlebot is allowed to fetch /gallery/\n"},
		{[]string{"check", "-agent", "GPTBot", "-path", "/gallery/"}, figure1, 1,
			"GPTBot is disallowed to fetch /gallery/\n"},
		{[]string{"check", "-agent", "SomeBot", "-path", "/secret/x", "-profile", "strict-rfc"}, figure1, 1,
			"SomeBot is disallowed to fetch /secret/x\n"},
		{[]string{"level", "-agent", "GPTBot"}, figure1, 0,
			"GPTBot: fully disallowed (explicitly named: fully disallowed)\n"},
		{[]string{"level", "-agent", "SomeBot"}, figure1, 0,
			"SomeBot: partially disallowed (not explicitly named)\n"},
		{[]string{"agents"}, figure1, 0, "Googlebot                no restrictions\n" +
			"ChatGPT-User             fully disallowed\n" +
			"GPTBot                   fully disallowed\n"},
		{[]string{"diff", "-old", oldPath, "-new", oldPath}, "", 0, "no agent-level changes\n"},
		{[]string{"diff", "-old", oldPath, "-new", newPath}, "", 1,
			"chatgpt-user             restriction removed      fully disallowed -> no restrictions\n" +
				"gptbot                   explicitly allowed       fully disallowed -> no restrictions\n"},
	} {
		var out, errb bytes.Buffer
		if code := run(strings.NewReader(tc.stdin), &out, &errb, tc.args); code != tc.code {
			t.Errorf("%v: exit %d, want %d (stderr %q)", tc.args, code, tc.code, errb.String())
		}
		if out.String() != tc.out {
			t.Errorf("%v: stdout\n%s\nwant\n%s", tc.args, out.String(), tc.out)
		}
	}
}

// TestUsageAndErrors: no command, an unknown command and a bad flag exit
// 2; a bad profile or a diff without both files exits 1; -h exits 0.
func TestUsageAndErrors(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		code   int
		stderr string
	}{
		{nil, 2, "usage: robotsctl <command>"},
		{[]string{"bogus"}, 2, "usage: robotsctl <command>"},
		{[]string{"check", "-no-such-flag"}, 2, "flag provided but not defined"},
		{[]string{"check", "-h"}, 0, "Usage of check:"},
		{[]string{"level", "-profile", "nope"}, 1, `robotsctl: unknown profile "nope"`},
		{[]string{"diff", "-old", "old.txt"}, 1, "robotsctl: diff requires -old and -new files"},
		{[]string{"diff", "-old", "testdata/missing.txt", "-new", "testdata/missing.txt"}, 1, "robotsctl: reading testdata/missing.txt"},
	} {
		var out, errb bytes.Buffer
		if code := run(strings.NewReader(figure1), &out, &errb, tc.args); code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: wrote to stdout: %q", tc.args, out.String())
		}
		if !strings.HasPrefix(errb.String(), tc.stderr) {
			t.Errorf("%v: stderr %q, want prefix %q", tc.args, errb.String(), tc.stderr)
		}
	}
}
