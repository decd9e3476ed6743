package policyd

import (
	"context"
	"slices"
	"strings"
	"testing"
)

// FuzzDecideMatchesReference is TestCorpusParity on bodies the corpus
// generator never writes: a snapshot compiled from arbitrary robots.txt,
// ai.txt, meta markup and blocklist (newline-separated; "" means none)
// must decide exactly as referenceDecision does, for the fuzzed agent
// and for every roster agent, under the host's lowercase and mixed-case
// spellings. A second host serves the same robots.txt and nothing else,
// so it shares the first host's roster views; deciding it against its
// own reference proves no per-host signal leaks through the shared
// table. That covers the roster precompute against the slow path, host
// folding, and signal precedence.
func FuzzDecideMatchesReference(f *testing.F) {
	f.Add("User-agent: GPTBot\nDisallow: /\n\nUser-agent: *\nDisallow: /admin/\n",
		"Image: N\nDisallow: /gallery/\n", "", "", "UnknownBot/1.0", "/admin/x")
	f.Add("User-agent: *\nAllow: /p\nDisallow: /*.htm$\n", "Disallow: *.PNG\nAllow: /pub/\n",
		`<meta name="robots" content="noimageai">`, "ccbot/\nClaudeBot", "Mozilla/5.0 (compatible; CCBot/2.0)", "/pub/a.png")
	f.Add("", "Text: N\n", `<meta name="robots" content="noai">`, "\n", "claudebot-news", "/about.html")
	f.Add("User-agent: googlebot\nDisallow: /search\n", "", "", "GPTBot", "Googlebot-News", "/search?q=1")
	f.Fuzz(func(t *testing.T, robotsTxt, aiTxt, meta, blocklist, agent, path string) {
		cfg := HostConfig{RobotsTxt: robotsTxt, AITxt: aiTxt, MetaHTML: meta}
		if blocklist != "" {
			cfg.Blocklist = strings.Split(blocklist, "\n")
		}
		bare := HostConfig{RobotsTxt: robotsTxt}
		b := &Builder{}
		b.Add("Fuzz.Test", cfg)
		b.Add("bare.test", bare)
		snap, err := b.Build(context.Background(), "fuzz", 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range append(slices.Clone(roster), agent) {
			for _, h := range []struct {
				cfg      HostConfig
				spelling []string
			}{
				{cfg, []string{"fuzz.test", "FUZZ.test"}},
				{bare, []string{"bare.test", "Bare.TEST"}},
			} {
				want := referenceDecision(h.cfg, a, path)
				for _, host := range h.spelling {
					if got := snap.Decide(Query{Host: host, Agent: a, Path: path}); got != want {
						t.Fatalf("Decide(%q, %q, %q) = %v/%v, reference = %v/%v",
							host, a, path, got.Action, got.Signal, want.Action, want.Signal)
					}
				}
			}
		}
	})
}
