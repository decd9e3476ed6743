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

// Property: ContainsFold agrees with strings.Contains on lowered inputs.
func TestContainsFoldProperty(t *testing.T) {
	f := func(s, sub string) bool {
		want := strings.Contains(strings.ToLower(s), strings.ToLower(sub))
		return ContainsFold(s, sub) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
