package useragent

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestExtractToken(t *testing.T) {
	cases := []struct {
		in, want string
	}{
		{"GPTBot/1.0 (+https://openai.com/gptbot)", "GPTBot"},
		{"Mozilla/5.0 (compatible; CCBot/2.0)", "Mozilla"},
		{"AI2Bot", "AI2Bot"},
		{"360Spider", "360Spider"},
		{"anthropic-ai", "anthropic-ai"},
		{"Meta-ExternalAgent", "Meta-ExternalAgent"},
		{"  ClaudeBot  ", "ClaudeBot"},
		{"", ""},
		{"/leading-slash", ""},
		{"omgili/0.5 +http://omgili.com", "omgili"},
	}
	for _, c := range cases {
		if got := ExtractToken(c.in); got != c.want {
			t.Errorf("ExtractToken(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestEqualToken(t *testing.T) {
	if !EqualToken("gptbot", "GPTBot") {
		t.Error("token comparison must be case-insensitive")
	}
	if EqualToken("GPTBot", "GPTBot2") {
		t.Error("distinct tokens must not match")
	}
}

func TestContainsFold(t *testing.T) {
	ua := FullUA("ClaudeBot", "1.0")
	if !ContainsFold(ua, "claudebot/") {
		t.Errorf("ContainsFold(%q, claudebot/) = false", ua)
	}
	if ContainsFold("short", "much longer pattern") {
		t.Error("longer substring cannot be contained")
	}
	if !ContainsFold("anything", "") {
		t.Error("empty substring is always contained")
	}
}

func TestMatchesAny(t *testing.T) {
	patterns := []string{"", "CCBot/", "anthropic-ai"}
	ua := FullUA("CCBot", "2.0")
	got, ok := MatchesAny(ua, patterns)
	if !ok || got != "CCBot/" {
		t.Fatalf("MatchesAny = %q, %v", got, ok)
	}
	if _, ok := MatchesAny("Mozilla/5.0 plain browser", patterns); ok {
		t.Fatal("browser UA must not match bot patterns")
	}
}

func TestFullUA(t *testing.T) {
	ua := FullUA("GPTBot", "")
	if !strings.Contains(ua, "GPTBot/1.0") {
		t.Fatalf("default version missing: %q", ua)
	}
	if ExtractToken(strings.TrimPrefix(ua[strings.Index(ua, "GPTBot"):], "")) != "GPTBot" {
		t.Fatalf("token not recoverable from %q", ua)
	}
}

func TestIsWildcard(t *testing.T) {
	if !IsWildcard(" * ") || IsWildcard("**") || IsWildcard("GPTBot") {
		t.Fatal("IsWildcard misclassification")
	}
}

// Property: the extracted token is always a prefix of the trimmed input and
// extraction is idempotent.
func TestExtractTokenProperties(t *testing.T) {
	f := func(s string) bool {
		tok := ExtractToken(s)
		if !strings.HasPrefix(strings.TrimSpace(s), tok) {
			return false
		}
		return ExtractToken(tok) == tok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ContainsFold agrees with strings.Contains on ASCII-lowered
// inputs.
func TestContainsFoldProperty(t *testing.T) {
	lower := func(s string) string {
		return strings.Map(func(r rune) rune {
			if 'A' <= r && r <= 'Z' {
				return r + 'a' - 'A'
			}
			return r
		}, s)
	}
	f := func(s, sub string) bool {
		want := strings.Contains(lower(s), lower(sub))
		return ContainsFold(s, sub) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestContainsFoldASCIIOnly pins the fold to ASCII: bytes >= 0x80
// compare exactly, so distinct invalid bytes and non-ASCII letters that
// Unicode lower-casing would map together stay distinct.
func TestContainsFoldASCIIOnly(t *testing.T) {
	cases := []struct {
		s, substr string
		want      bool
	}{
		{"\xfe", "\xff", false},
		{"\xff", "\xff", true},
		{"\u212a", "k", false}, // Kelvin sign
		{"k", "\u212a", false},
		{"\u212a", "\u212a", true},
		{FullUA("ccbot", "2.0"), "CCBot/", true},
		{"Mozilla/5.0 (compatible; cCbOt/2.0)", "CCBot/", true},
		{"Mozilla/5.0 (compatible; CCBot 2.0)", "CCBot/", false},
	}
	for _, c := range cases {
		if got := ContainsFold(c.s, c.substr); got != c.want {
			t.Errorf("ContainsFold(%q, %q) = %v, want %v", c.s, c.substr, got, c.want)
		}
		_, got := MatchesAny(c.s, []string{c.substr})
		if want := c.want && c.substr != ""; got != want {
			t.Errorf("MatchesAny(%q, [%q]) = %v, want %v", c.s, c.substr, got, want)
		}
	}
}

func TestMatchesAnyZeroAlloc(t *testing.T) {
	ua := "Mozilla/5.0 AppleWebKit/537.36 (KHTML, like Gecko); compatible; ClaudeBot/1.0"
	patterns := []string{"GPTBot", "CCBot/", "anthropic-ai", "claudebot"}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, ok := MatchesAny(ua, patterns); !ok {
			t.Fatal("claudebot must match")
		}
	}); allocs != 0 {
		t.Fatalf("MatchesAny allocated %v/op, want 0", allocs)
	}
}
