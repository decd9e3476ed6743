package policyd

import (
	"context"
	"slices"
	"testing"

	"repro/internal/corpus"
	"repro/internal/robots"
)

// TestIncrementalCompileEquivalence proves the month-advance fast path:
// compiling snapshot index i+1 with the index-i snapshot as Prev must
// produce decisions identical to a cold full compile, while actually
// reusing a meaningful fraction of host policies (most sites' robots.txt
// changes only in normalization-invisible ways between adjacent months).
func TestIncrementalCompileEquivalence(t *testing.T) {
	ctx := context.Background()
	c, err := corpus.New(ctx, corpus.Config{Seed: 20251028, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	base, err := FromCorpus(ctx, c, corpus.GPTBotAnnouncedIndex, 0)
	if err != nil {
		t.Fatal(err)
	}
	full, err := FromCorpus(ctx, c, corpus.GPTBotAnnouncedIndex+1, 0)
	if err != nil {
		t.Fatal(err)
	}
	incr, err := FromCorpusIncremental(ctx, c, corpus.GPTBotAnnouncedIndex+1, 0, base)
	if err != nil {
		t.Fatal(err)
	}

	if full.ReusedHosts() != 0 {
		t.Fatalf("cold compile reports %d reused hosts", full.ReusedHosts())
	}
	if incr.ReusedHosts() == 0 {
		t.Fatal("incremental compile reused no hosts — fast path never engaged")
	}
	if incr.ReusedHosts() >= incr.Len() {
		t.Fatalf("incremental compile reused all %d hosts — the month advance changed nothing?", incr.Len())
	}
	t.Logf("reused %d/%d hosts across the month advance", incr.ReusedHosts(), incr.Len())

	if incr.Version != full.Version {
		t.Fatalf("version %q != %q", incr.Version, full.Version)
	}

	agents := []string{"GPTBot", "CCBot", "Google-Extended", "Googlebot", "Mozilla", "anthropic-ai"}
	paths := []string{"/", "/about.html", "/admin/secret", "/gallery/a.png", "/search?q=x"}
	checked := 0
	for i, host := range full.Hosts() {
		q := Query{Host: host, Agent: agents[i%len(agents)], Path: paths[i%len(paths)]}
		if a, b := full.Decide(q), incr.Decide(q); a != b {
			t.Fatalf("host %s agent %s path %s: full %v/%v, incremental %v/%v",
				q.Host, q.Agent, q.Path, a.Action, a.Signal, b.Action, b.Signal)
		}
		checked++
	}
	if checked != full.Len() {
		t.Fatalf("checked %d of %d hosts", checked, full.Len())
	}

	// Reuse against a different-index Prev must also survive query-level
	// scrutiny for every agent on a sample of hosts (decision surface, not
	// just the sampled path above).
	hosts := full.Hosts()
	for i := 0; i < len(hosts); i += 37 {
		for _, ag := range agents {
			for _, p := range paths {
				q := Query{Host: hosts[i], Agent: ag, Path: p}
				if a, b := full.Decide(q), incr.Decide(q); a != b {
					t.Fatalf("dense check host %s agent %s path %s: full %v incremental %v", q.Host, ag, p, a, b)
				}
			}
		}
	}
}

// TestIncrementalRosterChange: a change in the host roster (one host
// dropped, one added) reuses the surviving host, since lookup is by name.
func TestIncrementalRosterChange(t *testing.T) {
	ctx := context.Background()
	b1 := &Builder{}
	b1.Add("a.test", HostConfig{RobotsTxt: "User-agent: *\nDisallow: /x\n"})
	b1.Add("b.test", HostConfig{})
	prev, err := b1.Build(ctx, "v1", 0)
	if err != nil {
		t.Fatal(err)
	}

	b2 := &Builder{Prev: prev}
	b2.Add("a.test", HostConfig{RobotsTxt: "User-agent: *\nDisallow: /x\n"})
	b2.Add("c.test", HostConfig{})
	grown, err := b2.Build(ctx, "v2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if grown.ReusedHosts() != 1 {
		t.Fatalf("host-set change reused %d hosts, want 1 (a.test)", grown.ReusedHosts())
	}
}

// TestIncrementalNormalizedReuse pins the parse-cache-key contract at
// the Builder level: comment/Sitemap-only robots.txt edits reuse the
// compiled host, semantic edits do not.
func TestIncrementalNormalizedReuse(t *testing.T) {
	ctx := context.Background()
	mk := func(prev *Snapshot, robots string) *Snapshot {
		b := &Builder{Prev: prev}
		b.Add("site.test", HostConfig{RobotsTxt: robots})
		b.Add("other.test", HostConfig{})
		sn, err := b.Build(ctx, "v", 0)
		if err != nil {
			t.Fatal(err)
		}
		return sn
	}
	base := mk(nil, "User-agent: GPTBot\nDisallow: /\n")

	// Normalization-invisible edit (comment + Sitemap lines): reused.
	cosmetic := mk(base, "# crawler policy\nUser-agent: GPTBot\nDisallow: /\nSitemap: https://site.test/s.xml\n")
	if cosmetic.ReusedHosts() != 2 {
		t.Fatalf("cosmetic robots edit reused %d hosts, want 2", cosmetic.ReusedHosts())
	}
	q := Query{Host: "site.test", Agent: "GPTBot", Path: "/p"}
	if d := cosmetic.Decide(q); d.Action != Deny {
		t.Fatalf("reused host lost its policy: %v", d)
	}

	// Semantic edit: recompiled, new policy visible.
	semantic := mk(base, "User-agent: GPTBot\nAllow: /\n")
	if semantic.ReusedHosts() != 1 { // only other.test
		t.Fatalf("semantic robots edit reused %d hosts, want 1", semantic.ReusedHosts())
	}
	if d := semantic.Decide(q); d.Action != allow {
		t.Fatalf("recompiled host kept the old policy: %v", d)
	}

	// Non-robots surface change (ai.txt) must also force recompile.
	b := &Builder{Prev: base}
	b.Add("site.test", HostConfig{RobotsTxt: "User-agent: GPTBot\nDisallow: /\n", AITxt: "User-agent: *\nDisallow: /\n"})
	b.Add("other.test", HostConfig{})
	sn, err := b.Build(ctx, "v", 0)
	if err != nil {
		t.Fatal(err)
	}
	if sn.ReusedHosts() != 1 {
		t.Fatalf("ai.txt change reused %d hosts, want 1", sn.ReusedHosts())
	}
}

// TestRosterViewsShared pins the sharing Decide's hot path reads from:
// hosts whose robots.txt bodies are equal under the parse-cache key read
// one roster-view table, a host with other rules gets its own, and an
// incremental build that recompiles one host keeps the reused hosts on
// the previous table while every host still decides like the reference.
func TestRosterViewsShared(t *testing.T) {
	ctx := context.Background()
	const tmpl = "User-agent: GPTBot\nDisallow: /\n\nUser-agent: *\nDisallow: /admin/\n"
	hosts := []string{"a.test", "b.test", "c.test"}
	cfgs := []HostConfig{
		{RobotsTxt: tmpl},
		// The same rules under another site's comment and Sitemap lines,
		// plus per-host signals the shared table must not carry.
		{RobotsTxt: "# b.test\n" + tmpl + "Sitemap: https://b.test/s.xml\n",
			AITxt: "Image: N\n", MetaHTML: `<meta name="robots" content="noai">`, Blocklist: []string{"CCBot"}},
		{RobotsTxt: "User-agent: *\nDisallow: /private/\n"},
	}
	build := func(prev *Snapshot) *Snapshot {
		b := &Builder{Prev: prev}
		for i, h := range hosts {
			b.Add(h, cfgs[i])
		}
		sn, err := b.Build(ctx, "v", 2)
		if err != nil {
			t.Fatal(err)
		}
		return sn
	}
	view := func(sn *Snapshot, host string) *robots.Access { return &sn.lookup(host).access[0] }
	check := func(sn *Snapshot) {
		t.Helper()
		for i, h := range hosts {
			for _, a := range append(slices.Clone(roster), "UnknownCrawler9000") {
				for _, p := range parityPaths {
					want := referenceDecision(cfgs[i], a, p)
					if got := sn.Decide(Query{Host: h, Agent: a, Path: p}); got != want {
						t.Fatalf("%s: Decide(%s, %s, %s) = %v/%v, reference = %v/%v",
							sn.Version, h, a, p, got.Action, got.Signal, want.Action, want.Signal)
					}
				}
			}
		}
	}

	base := build(nil)
	if view(base, "a.test") != view(base, "b.test") {
		t.Fatal("hosts with equal robots.txt rules compiled separate roster views")
	}
	if view(base, "a.test") == view(base, "c.test") {
		t.Fatal("hosts with different robots.txt rules share roster views")
	}
	check(base)

	cfgs[2] = HostConfig{RobotsTxt: "User-agent: *\nDisallow: /\n"}
	next := build(base)
	if next.ReusedHosts() != 2 {
		t.Fatalf("incremental build reused %d hosts, want 2 (a.test, b.test)", next.ReusedHosts())
	}
	if view(next, "a.test") != view(base, "a.test") || view(next, "b.test") != view(base, "a.test") {
		t.Fatal("reused hosts left the previous snapshot's roster views")
	}
	if view(next, "c.test") == view(base, "c.test") {
		t.Fatal("recompiled host kept its old roster views")
	}
	check(next)
}
