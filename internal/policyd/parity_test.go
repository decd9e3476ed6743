package policyd

import (
	"context"
	"testing"

	"repro/internal/agents"
	"repro/internal/aitxt"
	"repro/internal/corpus"
	"repro/internal/metatags"
	"repro/internal/robots"
	"repro/internal/useragent"
)

// parityPaths exercises the matcher corners: root, the generic wildcard
// disallows the corpus renders (/admin/, /search, …), the per-agent
// partial patterns (/images/, /gallery/), query strings, mixed-case
// image extensions, and the always-allowed /robots.txt.
var parityPaths = []string{
	"/",
	"/about.html",
	"/admin/",
	"/admin/panel.php",
	"/search?q=art",
	"/images/private/piece.png",
	"/gallery/2024/work.JPG",
	"/blog/2024/post?id=1",
	"/robots.txt",
	"/cgi-bin/run",
	"/piece.webp",
}

// snapshotSource returns the policy surface host was compiled from.
func snapshotSource(sn *Snapshot, host string) (HostConfig, bool) {
	if hp := sn.lookup(host); hp != nil {
		return hp.src, true
	}
	return HostConfig{}, false
}

// referenceDecision recomputes a decision directly from the raw policy
// surface with the substrate packages the batch pipelines use —
// robots.Robots.Agent/Allowed (the robots.Match path), aitxt.Permitted,
// metatags.Scan, useragent.MatchesAny — composed in the documented
// precedence (the same ordering the scenario flush applies before
// measure.Classify sees a log window: blocked requests first, then
// robots policy, then use-time signals).
func referenceDecision(src HostConfig, agent, path string) Decision {
	if src.Blocklist != nil {
		if _, hit := useragent.MatchesAny(agent, src.Blocklist); hit {
			return Decision{Block, signalBlocker}
		}
	}
	robotsSignal := signalNone
	if src.RobotsTxt != "" {
		acc := robots.ParseCached(src.RobotsTxt).Agent(agent)
		if acc.HasRules() {
			robotsSignal = signalRobotsWildcard
			if acc.Explicit {
				robotsSignal = signalRobotsAgent
			}
			if !acc.Allowed(path) {
				return Decision{Deny, robotsSignal}
			}
		}
	}
	if src.AITxt != "" && !aitxt.ParseString(src.AITxt).Permitted(path) {
		return Decision{Deny, signalAITxt}
	}
	if src.MetaHTML != "" {
		d := metatags.Scan(src.MetaHTML)
		if d.NoAI || (d.NoImageAI && aitxt.MediaOf(path) == aitxt.MediaImage) {
			return Decision{Deny, signalMeta}
		}
	}
	return Decision{allow, robotsSignal}
}

// TestCorpusParity is the service's correctness anchor: for every host
// in the bench-scale corpus snapshot, every Table 1 agent (plus non-AI
// and off-roster agents), and every parity path, the batched service
// decision must equal the reference composition of direct substrate
// calls. Run at two corpus snapshots so both sparse and dense policy
// states are covered.
func TestCorpusParity(t *testing.T) {
	ctx := context.Background()
	c, err := corpus.New(ctx, corpus.Config{Seed: 20251028, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	queryAgents := append(agents.Tokens(), "Googlebot", "Mozilla", "UnknownCrawler9000")

	for _, snapIdx := range []int{corpus.GPTBotAnnouncedIndex, len(corpus.Snapshots) - 1} {
		snap, err := FromCorpus(ctx, c, snapIdx, 4)
		if err != nil {
			t.Fatal(err)
		}
		svc := NewService(snap)
		checked := 0
		for _, host := range snap.Hosts() {
			src, ok := snapshotSource(snap, host)
			if !ok {
				t.Fatalf("no source for %s", host)
			}
			qs := make([]Query, 0, len(queryAgents)*len(parityPaths))
			for _, a := range queryAgents {
				for _, p := range parityPaths {
					qs = append(qs, Query{Host: host, Agent: a, Path: p})
				}
			}
			got, _ := svc.DecideBatchVersioned(qs, make([]Decision, 0, len(qs)))
			for i, q := range qs {
				want := referenceDecision(src, q.Agent, q.Path)
				if got[i] != want {
					t.Fatalf("snapshot %s: Decide(%s, %s, %s) = %v/%v, reference = %v/%v",
						snap.Version, q.Host, q.Agent, q.Path,
						got[i].Action, got[i].Signal, want.Action, want.Signal)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatal("no decisions checked")
		}
		t.Logf("snapshot %s: %d hosts, %d decisions parity-checked", snap.Version, snap.Len(), checked)
	}
}

// TestPrecedence pins the multi-signal ordering the package documents:
// blocker > robots > ai.txt > meta, with deny-if-any-denies semantics.
func TestPrecedence(t *testing.T) {
	b := &Builder{}
	// Every signal denies GPTBot on /art.png; precedence picks the winner.
	all := HostConfig{
		RobotsTxt: "User-agent: GPTBot\nDisallow: /\n",
		AITxt:     "Image: N\n",
		MetaHTML:  `<meta name="robots" content="noai">`,
		Blocklist: []string{"GPTBot"},
	}
	b.Add("all.test", all)
	noBlock := all
	noBlock.Blocklist = nil
	b.Add("noblock.test", noBlock)
	noRobots := noBlock
	noRobots.RobotsTxt = ""
	b.Add("norobots.test", noRobots)
	noAITxt := noRobots
	noAITxt.AITxt = ""
	b.Add("noaitxt.test", noAITxt)
	snap, err := b.Build(context.Background(), "precedence", 1)
	if err != nil {
		t.Fatal(err)
	}
	q := func(host string) Decision { return snap.Decide(Query{host, "GPTBot", "/art.png"}) }
	for host, want := range map[string]Decision{
		"all.test":      {Block, signalBlocker},
		"noblock.test":  {Deny, signalRobotsAgent},
		"norobots.test": {Deny, signalAITxt},
		"noaitxt.test":  {Deny, signalMeta},
	} {
		if got := q(host); got != want {
			t.Errorf("%s: %v/%v, want %v/%v", host, got.Action, got.Signal, want.Action, want.Signal)
		}
	}
}
