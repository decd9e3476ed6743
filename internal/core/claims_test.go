package core

import (
	"context"
	"fmt"
	"math"
	"regexp"
	"strconv"
	"testing"
)

// claim is one number the paper states and the registry reproduces.
type claim struct {
	id      string
	section string
	paper   float64
	// tolerance is the largest distance from paper, in the claim's
	// unit, that still reproduces it.
	tolerance float64
	// kind is "constructed" when the value restates an input of the
	// simulation, or "emergent" when it comes out of it.
	kind string
	// restates names the input a constructed claim restates.
	restates string
	// experiment is the registry ID whose Result holds the value.
	experiment string
	read       func(*Result) (float64, error)
}

// The claims of ROADMAP item 5's table, one row per stated number.
var claims = []claim{
	{"gptbot-removals", "§3.3", 484, 48, "emergent", "",
		"figure4", noted(`removed a GPTBot restriction after its announcement: (\d+)`)},
	{"squarespace-ai-toggle-pct", "§4.4", 17, 2, "constructed", "hosting ToggleAdoptionRate: 0.17",
		"table2", noted(`AI-toggle adoption: \d+ of \d+ eligible sites \(([\d.]+)%`)},
	{"blockai-on-robots-pct", "§6.3", 24, 2, "constructed", "proxy paperOnRobotsRate = 0.24",
		"figure7", noted(`robots.txt AI restrictions: ([\d.]+)% of enabled sites`)},
	{"blockai-off-robots-pct", "§6.3", 12, 2, "constructed", "proxy paperOffRobotsRate = 0.12",
		"figure7", noted(`of enabled sites vs ([\d.]+)% of others`)},
	{"cloudflare-conclusive-pct", "§6.3", 93, 1, "constructed", "proxy inconclusiveRate = 0.0719",
		"figure7", noted(`^conclusive: ([\d.]+)%`)},
	{"blockai-adoption-pct", "§6.3", 5.7, 0.5, "constructed", "proxy onBlockRate + onChallengeRate = 0.0382 + 0.0149",
		"figure7", noted(`adoption among conclusive: ([\d.]+)%`)},
	{"blockai-user-agents", "§6.3, App. C.3", 17, 0, "constructed", "agents.CloudflareBlockAIBots (17 entries)",
		"cloudflare-greybox", tableRows},
	{"gpt-app-crawlers", "§5.2.2", 23, 0, "constructed", "measure generateThirdParty's 23 crawlers",
		"active-assistants", noted(`→ (\d+) distinct crawlers`)},
}

// noted reads the number in pattern's first group from the first
// section heading or note of a Result that pattern matches.
func noted(pattern string) func(*Result) (float64, error) {
	re := regexp.MustCompile(pattern)
	return func(res *Result) (float64, error) {
		for _, sec := range res.Sections {
			for _, text := range append([]string{sec.Heading}, sec.Notes...) {
				if m := re.FindStringSubmatch(text); m != nil {
					return strconv.ParseFloat(m[1], 64)
				}
			}
		}
		return 0, fmt.Errorf("no heading or note matches %q", pattern)
	}
}

// tableRows reads the row count of a Result's first table.
func tableRows(res *Result) (float64, error) {
	for _, sec := range res.Sections {
		if sec.Table != nil {
			return float64(len(sec.Table.Rows)), nil
		}
	}
	return 0, fmt.Errorf("no table")
}

// TestPaperClaims runs the claimed experiments once, at full scale and
// the default seed, and reads every claim from its Result. An emergent
// claim outside its tolerance fails; a constructed one that drifts is
// logged, since it reports on an input rather than on the simulation.
func TestPaperClaims(t *testing.T) {
	var ids []string
	for _, c := range claims {
		if c.kind != "constructed" && c.kind != "emergent" {
			t.Fatalf("%s: kind %q, want constructed or emergent", c.id, c.kind)
		}
		if (c.kind == "constructed") != (c.restates != "") {
			t.Fatalf("%s: a constructed claim, and only one, names the input it restates", c.id)
		}
		ids = append(ids, c.experiment)
	}
	results, err := RunAll(context.Background(), DefaultConfig(), Options{IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]*Result, len(results))
	for _, r := range results {
		byID[r.ID] = r
	}
	for _, c := range claims {
		got, err := c.read(byID[c.experiment])
		if err != nil {
			t.Fatalf("%s: reading %s: %v", c.id, c.experiment, err)
		}
		off := math.Abs(got - c.paper)
		switch {
		case off <= c.tolerance:
			t.Logf("%s (%s, %s): %g, paper %g ± %g", c.id, c.section, c.kind, got, c.paper, c.tolerance)
		case c.kind == "emergent":
			t.Errorf("%s (%s): %g is %g from the paper's %g, past the tolerance %g",
				c.id, c.section, got, off, c.paper, c.tolerance)
		default:
			t.Logf("%s (%s): %g is %g from the paper's %g, past the tolerance %g; it restates %s",
				c.id, c.section, got, off, c.paper, c.tolerance, c.restates)
		}
	}
}
