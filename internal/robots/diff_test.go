package robots

import "testing"

func TestDiffLicensingDealSignature(t *testing.T) {
	// The §3.3 pattern: GPTBot and ChatGPT-User rules vanish, the rest of
	// the file stays identical.
	before := ParseString(`User-agent: GPTBot
User-agent: ChatGPT-User
Disallow: /

User-agent: CCBot
Disallow: /

User-agent: *
Disallow: /admin/
`)
	after := ParseString(`User-agent: CCBot
Disallow: /

User-agent: *
Disallow: /admin/
`)
	changes := Diff(before, after)
	if len(changes) != 2 {
		t.Fatalf("changes = %+v, want 2 removals", changes)
	}
	for _, c := range changes {
		if c.Kind != changeRemoved {
			t.Errorf("%s: kind = %v, want removed", c.Agent, c.Kind)
		}
		if c.From != FullyDisallowed || c.To != unrestricted {
			t.Errorf("%s: levels %v → %v", c.Agent, c.From, c.To)
		}
	}
	if changes[0].Agent != "chatgpt-user" || changes[1].Agent != "gptbot" {
		t.Errorf("agents = %s, %s (want sorted)", changes[0].Agent, changes[1].Agent)
	}
}

func TestDiffAdditionAndAllow(t *testing.T) {
	before := ParseString("User-agent: *\nDisallow: /x/\n")
	after := ParseString(`User-agent: Bytespider
Disallow: /

User-agent: GPTBot
Allow: /

User-agent: *
Disallow: /x/
`)
	changes := Diff(before, after)
	byAgent := map[string]Change{}
	for _, c := range changes {
		byAgent[c.Agent] = c
	}
	if byAgent["bytespider"].Kind != changeAdded {
		t.Errorf("bytespider = %v", byAgent["bytespider"].Kind)
	}
	if byAgent["gptbot"].Kind != changeNowAllowed {
		t.Errorf("gptbot = %v", byAgent["gptbot"].Kind)
	}
}

func TestDiffTightenLoosen(t *testing.T) {
	partial := ParseString("User-agent: GPTBot\nDisallow: /images/\n")
	full := ParseString("User-agent: GPTBot\nDisallow: /\n")
	up := Diff(partial, full)
	if len(up) != 1 || up[0].Kind != changeTightened {
		t.Fatalf("tighten diff = %+v", up)
	}
	down := Diff(full, partial)
	if len(down) != 1 || down[0].Kind != changeLoosened {
		t.Fatalf("loosen diff = %+v", down)
	}
}

func TestDiffNoChanges(t *testing.T) {
	a := ParseString(figure1)
	b := ParseString(figure1)
	if changes := Diff(a, b); len(changes) != 0 {
		t.Fatalf("identical files must not differ: %+v", changes)
	}
}

func TestDiffWildcardOnlyChangeIgnored(t *testing.T) {
	before := ParseString("User-agent: *\nDisallow: /a/\n")
	after := ParseString("User-agent: *\nDisallow: /\n")
	if changes := Diff(before, after); len(changes) != 0 {
		t.Fatalf("wildcard change is not an agent change: %+v", changes)
	}
}

func TestChangeKindStrings(t *testing.T) {
	for k, want := range map[ChangeKind]string{
		changeAdded: "restriction added", changeRemoved: "restriction removed",
		changeTightened: "restriction tightened", changeLoosened: "restriction loosened",
		changeNowAllowed: "explicitly allowed", ChangeKind(9): "unknown",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d = %q, want %q", k, got, want)
		}
	}
}
