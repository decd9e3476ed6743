package corpus

import (
	"context"
	"strings"
	"testing"

	"repro/internal/robots"
)

func testCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := New(context.Background(), Config{Seed: 11, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestParallelGenerationIdentical locks down the engine guarantee that a
// corpus is bit-identical for every worker count: all randomness comes
// from per-site forks derived in a fixed sequential order.
func TestParallelGenerationIdentical(t *testing.T) {
	ctx := context.Background()
	base, err := New(ctx, Config{Seed: 11, Scale: 0.05, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		c, err := New(ctx, Config{Seed: 11, Scale: 0.05, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Sites()) != len(base.Sites()) {
			t.Fatalf("workers=%d: %d sites, want %d", workers, len(c.Sites()), len(base.Sites()))
		}
		last := len(Snapshots) - 1
		for i, s := range c.Sites() {
			b := base.Sites()[i]
			if s.Domain != b.Domain || s.Top5k != b.Top5k {
				t.Fatalf("workers=%d: site %d = %s/%v, want %s/%v",
					workers, i, s.Domain, s.Top5k, b.Domain, b.Top5k)
			}
			if got, want := c.RobotsBody(s, last), base.RobotsBody(b, last); got != want {
				t.Fatalf("workers=%d: %s robots.txt diverges:\n%s\n--- want ---\n%s",
					workers, s.Domain, got, want)
			}
		}
	}
}

func TestGenerationCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(ctx, Config{Seed: 11, Scale: 0.05}); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSnapshotTable(t *testing.T) {
	if len(Snapshots) != 15 {
		t.Fatalf("snapshots = %d, want 15 (Table 3)", len(Snapshots))
	}
	for i := 1; i < len(Snapshots); i++ {
		if !Snapshots[i-1].Date.Before(Snapshots[i].Date) {
			t.Errorf("snapshot dates not increasing at %d", i)
		}
	}
	// Table 3 totals from the paper.
	if Snapshots[0].TargetSites != 40177 || Snapshots[0].TargetRobots != 31494 {
		t.Error("first snapshot targets wrong")
	}
	if Snapshots[14].ID != "2024-42" || Snapshots[14].TargetSites != 40420 {
		t.Error("last snapshot targets wrong")
	}
	if SnapshotIndex("2023-40") != 5 {
		t.Errorf("2023-40 index = %d, want 5 (GPTBot announcement)", SnapshotIndex("2023-40"))
	}
	if SnapshotIndex("nope") != -1 {
		t.Error("unknown snapshot must be -1")
	}
	if GPTBotAnnouncedIndex != SnapshotIndex("2023-40") {
		t.Error("announcement index constant out of sync")
	}
	if EUAIActIndex != SnapshotIndex("2024-33") {
		t.Error("EU AI Act index constant out of sync")
	}
}

func TestTable4Data(t *testing.T) {
	if len(Table4) != 78 {
		t.Fatalf("Table 4 rows = %d, want 78", len(Table4))
	}
	seen := map[string]bool{}
	for _, r := range Table4 {
		if seen[r.Domain] {
			t.Errorf("duplicate Table 4 domain %s", r.Domain)
		}
		seen[r.Domain] = true
		if SnapshotIndex(r.FirstSeen) < 0 {
			t.Errorf("%s: unknown snapshot %s", r.Domain, r.FirstSeen)
		}
	}
	// Five persistent allowers since GPTBot's release (§ B.3).
	early := 0
	for _, r := range Table4 {
		if idx := SnapshotIndex(r.FirstSeen); idx <= SnapshotIndex("2023-50") {
			early++
		}
	}
	if early != 5 {
		t.Errorf("early allowers = %d, want 5 (nfhs, 10best, ground, network54, tarleton)", early)
	}
}

func TestDealsData(t *testing.T) {
	if len(Deals) != 6 {
		t.Fatalf("deals = %d, want 6", len(Deals))
	}
	for _, d := range Deals {
		if SnapshotIndex(d.EffectiveSnapshot) < 0 {
			t.Errorf("%s: bad snapshot %s", d.Publisher, d.EffectiveSnapshot)
		}
		if len(d.Domains) == 0 {
			t.Errorf("%s: no domains", d.Publisher)
		}
	}
	// Vox Media's explicit-allow domains must all be Table 4 rows.
	t4 := map[string]bool{}
	for _, r := range Table4 {
		t4[r.Domain] = true
	}
	for _, d := range Deals {
		if !d.ExplicitAllow {
			continue
		}
		for _, dom := range d.Domains {
			if !t4[dom] {
				t.Errorf("%s: explicit-allow domain %s missing from Table 4", d.Publisher, dom)
			}
		}
	}
	// Future PLC is the suspected private deal.
	for _, d := range Deals {
		if d.Publisher == "Future PLC" && d.Public {
			t.Error("Future PLC must be non-public (§3.3)")
		}
	}
}

func TestCorpusConstruction(t *testing.T) {
	c := testCorpus(t)
	if len(c.Sites()) == 0 {
		t.Fatal("no sites")
	}
	// Top tier first.
	for i, s := range c.Sites() {
		if (i < c.Top5kCount()) != s.Top5k {
			t.Fatalf("site %d top5k flag inconsistent with ordering", i)
		}
	}
	// All pinned domains present.
	for _, d := range pinnedDomains() {
		if _, ok := c.byDomain[d]; !ok {
			t.Errorf("pinned domain %s missing", d)
		}
	}
	if len(c.nonRobots) == 0 {
		t.Error("non-robots population missing")
	}
}

func TestCorpusDeterminism(t *testing.T) {
	c1 := testCorpus(t)
	c2 := testCorpus(t)
	if len(c1.Sites()) != len(c2.Sites()) {
		t.Fatal("site counts differ")
	}
	for i := range c1.Sites() {
		s1, s2 := c1.Sites()[i], c2.Sites()[i]
		if s1.Domain != s2.Domain || len(s1.Events) != len(s2.Events) {
			t.Fatalf("site %d differs between identical-seed corpora", i)
		}
	}
	s := c1.Sites()[len(c1.Sites())/2]
	if c1.RobotsBody(s, 14) != c2.RobotsBody(c2.Sites()[len(c2.Sites())/2], 14) {
		t.Fatal("rendered bodies differ")
	}
}

func TestRenderedBodiesParse(t *testing.T) {
	c := testCorpus(t)
	mistakes, total := 0, 0
	for _, s := range c.Sites()[:200] {
		body := c.RobotsBody(s, 14)
		rep := robots.Lint(body)
		total++
		if rep.Mistakes > 0 {
			mistakes++
			if !s.hasMistake {
				t.Errorf("%s: unexpected lint mistakes: %v", s.Domain, rep.Warnings)
			}
		} else if s.hasMistake {
			t.Errorf("%s: mistake trait not rendered", s.Domain)
		}
		if rep.Groups == 0 {
			t.Errorf("%s: rendered body has no groups", s.Domain)
		}
	}
	if mistakes == total {
		t.Error("every file has mistakes; injection rate broken")
	}
}

func TestVoxDealTimeline(t *testing.T) {
	c := testCorpus(t)
	s, ok := c.byDomain["vox.com"]
	if !ok {
		t.Fatal("vox.com missing")
	}
	// Before the deal: GPTBot fully disallowed (from the surge snapshot).
	body := c.RobotsBody(s, 8)
	rb := robots.ParseString(body)
	if lvl, explicit := rb.ExplicitRestriction("GPTBot"); !explicit || lvl != robots.FullyDisallowed {
		t.Errorf("pre-deal vox.com GPTBot = %v explicit=%v, want fully disallowed", lvl, explicit)
	}
	// After the deal (snapshot 14 = 2024-42): explicit allow.
	body = c.RobotsBody(s, 14)
	rb = robots.ParseString(body)
	if !rb.ExplicitlyAllows("GPTBot") {
		t.Errorf("post-deal vox.com must explicitly allow GPTBot:\n%s", body)
	}
}

func TestEarlyAllowerTimeline(t *testing.T) {
	c := testCorpus(t)
	s, ok := c.byDomain["nfhs.org"]
	if !ok {
		t.Fatal("nfhs.org missing")
	}
	// First seen at 2023-40 (index 5) and persistent through the end.
	for k := 5; k <= 14; k++ {
		rb := robots.ParseString(c.RobotsBody(s, k))
		if !rb.ExplicitlyAllows("GPTBot") {
			t.Errorf("nfhs.org must allow GPTBot at snapshot %d", k)
		}
	}
	rb := robots.ParseString(c.RobotsBody(s, 4))
	if rb.ExplicitlyAllows("GPTBot") {
		t.Error("nfhs.org must not allow GPTBot before its first-seen snapshot")
	}
}

func TestStackExchangeRemoval(t *testing.T) {
	c := testCorpus(t)
	s, ok := c.byDomain["stackoverflow.com"]
	if !ok {
		t.Fatal("stackoverflow.com missing")
	}
	dealIdx := SnapshotIndex("2024-22")
	rb := robots.ParseString(c.RobotsBody(s, dealIdx-1))
	if _, explicit := rb.ExplicitRestriction("GPTBot"); !explicit {
		t.Error("stackoverflow must restrict GPTBot before the deal")
	}
	if _, explicit := rb.ExplicitRestriction("ChatGPT-User"); !explicit {
		t.Error("stackoverflow must restrict ChatGPT-User before the deal")
	}
	rb = robots.ParseString(c.RobotsBody(s, dealIdx))
	if _, explicit := rb.ExplicitRestriction("GPTBot"); explicit {
		t.Error("stackoverflow must drop the GPTBot restriction at the deal")
	}
	if _, explicit := rb.ExplicitRestriction("ChatGPT-User"); explicit {
		t.Error("the deal removes both OpenAI agents")
	}
}

func TestStateFoldingSemantics(t *testing.T) {
	c := testCorpus(t)
	s := &Site{Domain: "fold.test", Events: []Event{
		{Snap: 1, Kind: eventAddRestriction, Agents: []string{"GPTBot"}, Full: true},
		{Snap: 2, Kind: eventAddRestriction, Agents: []string{"CCBot"}, Full: false},
		{Snap: 3, Kind: eventExplicitAllow, Agents: []string{"GPTBot"}},
		{Snap: 4, Kind: eventRemoveRestriction},
	}}
	st := c.stateAt(s, 0)
	if st.restricted() {
		t.Error("no events yet at snapshot 0")
	}
	st = c.stateAt(s, 2)
	if !st.Full["GPTBot"] || !st.Partial["CCBot"] {
		t.Errorf("state at 2 = %+v", st)
	}
	st = c.stateAt(s, 3)
	if st.Full["GPTBot"] || !st.Allowed["GPTBot"] {
		t.Error("allow must clear the restriction")
	}
	st = c.stateAt(s, 4)
	if st.restricted() {
		t.Error("remove-all must clear restrictions")
	}
	if !st.Allowed["GPTBot"] {
		t.Error("remove-restriction must not clear explicit allows")
	}
}

func TestPartialDoesNotDowngradeFull(t *testing.T) {
	c := testCorpus(t)
	s := &Site{Domain: "x.test", Events: []Event{
		{Snap: 0, Kind: eventAddRestriction, Agents: []string{"GPTBot"}, Full: true},
		{Snap: 1, Kind: eventAddRestriction, Agents: []string{"GPTBot"}, Full: false},
	}}
	st := c.stateAt(s, 1)
	if !st.Full["GPTBot"] || st.Partial["GPTBot"] {
		t.Error("a later partial event must not downgrade a full restriction")
	}
}

func TestPresenceCounts(t *testing.T) {
	c := testCorpus(t)
	for k := range Snapshots {
		sites, robotsN := c.PresenceCounts(k)
		if robotsN > sites {
			t.Fatalf("snapshot %d: robots %d > sites %d", k, robotsN, sites)
		}
		if robotsN > len(c.Sites()) {
			t.Fatalf("snapshot %d: robots %d exceeds population", k, robotsN)
		}
		if sites == 0 {
			t.Fatalf("snapshot %d: no sites present", k)
		}
	}
	if s, r := c.PresenceCounts(-1); s != 0 || r != 0 {
		t.Error("out-of-range snapshot must be empty")
	}
}

func TestScaledPopulations(t *testing.T) {
	c := testCorpus(t) // scale 0.05
	scale := 0.05
	wantTop := int(float64(paperTop5kPopulation)*scale + 0.5)
	if got := c.Top5kCount(); got != wantTop {
		t.Errorf("top5k = %d, want %d", got, wantTop)
	}
	// Other population: scaled target plus pinned publisher domains.
	wantOther := int(float64(paperOtherPopulation)*scale + 0.5)
	got := len(c.Sites()) - c.Top5kCount()
	if got < wantOther || got > wantOther+len(pinnedDomains()) {
		t.Errorf("other population = %d, want within [%d, %d]",
			got, wantOther, wantOther+len(pinnedDomains()))
	}
}

func TestInvalidScale(t *testing.T) {
	if _, err := New(context.Background(), Config{Seed: 1, Scale: -1}); err == nil {
		t.Fatal("negative scale must be rejected")
	}
}

func TestEventOrdering(t *testing.T) {
	c := testCorpus(t)
	for _, s := range c.Sites() {
		for i := 1; i < len(s.Events); i++ {
			if s.Events[i-1].Snap > s.Events[i].Snap {
				t.Fatalf("%s: events out of order", s.Domain)
			}
		}
	}
}

// TestRobotsBodiesMatchesRobotsBody: the one-fold timeline renders, for
// every site and snapshot, the body RobotsBody renders from scratch.
func TestRobotsBodiesMatchesRobotsBody(t *testing.T) {
	c := testCorpus(t)
	for _, s := range c.Sites() {
		bodies := c.RobotsBodies(s)
		if len(bodies) != len(Snapshots) {
			t.Fatalf("%s: %d bodies, want %d", s.Domain, len(bodies), len(Snapshots))
		}
		for k, body := range bodies {
			if want := c.RobotsBody(s, k); body != want {
				t.Fatalf("%s@%d: RobotsBodies\n%s\nRobotsBody\n%s", s.Domain, k, body, want)
			}
		}
	}
}

// Property: the rendered robots.txt always parses back to exactly the
// folded event state — generation and measurement agree at the protocol
// surface for every site and snapshot.
func TestRenderStateConsistency(t *testing.T) {
	c := testCorpus(t)
	sites := c.Sites()
	step := len(sites)/150 + 1
	for i := 0; i < len(sites); i += step {
		s := sites[i]
		for _, k := range []int{0, 5, 9, 14} {
			st := c.stateAt(s, k)
			rb := robots.ParseString(c.RobotsBody(s, k))
			for ua := range st.Full {
				lvl, explicit := rb.ExplicitRestriction(ua)
				if !explicit || lvl != robots.FullyDisallowed {
					t.Fatalf("%s@%d: %s state=full, parsed=%v explicit=%v",
						s.Domain, k, ua, lvl, explicit)
				}
			}
			for ua := range st.Partial {
				lvl, explicit := rb.ExplicitRestriction(ua)
				if !explicit || lvl != robots.PartiallyDisallowed {
					t.Fatalf("%s@%d: %s state=partial, parsed=%v explicit=%v",
						s.Domain, k, ua, lvl, explicit)
				}
			}
			for ua := range st.Allowed {
				if !rb.ExplicitlyAllows(ua) {
					t.Fatalf("%s@%d: %s state=allowed, parser disagrees", s.Domain, k, ua)
				}
			}
			// And nothing extra: every explicitly restricted Table-1 token
			// in the parse exists in the state.
			for _, tok := range rb.AgentTokens() {
				if lvl, explicit := rb.ExplicitRestriction(tok); explicit && lvl.Restricted() {
					if !st.Full[canonicalAgent(tok)] && !st.Partial[canonicalAgent(tok)] {
						t.Fatalf("%s@%d: parsed restriction for %s not in state", s.Domain, k, tok)
					}
				}
			}
		}
	}
}

// canonicalAgent maps a parsed token back to the event-state agent name.
func canonicalAgent(tok string) string {
	for _, a := range []string{
		"GPTBot", "CCBot", "Google-Extended", "ChatGPT-User", "anthropic-ai",
		"ClaudeBot", "Claude-Web", "PerplexityBot", "Bytespider", "omgili",
		"FacebookBot", "Amazonbot", "cohere-ai", "Diffbot", "Applebot-Extended",
		"Meta-ExternalAgent", "Meta-ExternalFetcher", "Timpibot", "YouBot",
		"Applebot", "AI2Bot", "Kangaroo Bot", "OAI-SearchBot", "Webzio-Extended",
	} {
		if strings.EqualFold(a, tok) || strings.EqualFold(strings.Split(a, " ")[0], tok) {
			return a
		}
	}
	return tok
}

// TestCorpusRobotsBodiesCollapseInParseCache proves the normalized parse
// cache key on real corpus renderings: bodies are unique per site only
// because of the per-domain comment and Sitemap lines, so a fresh cache
// fed every site's robots.txt at one snapshot must collapse them to the
// underlying policy templates — orders of magnitude fewer entries than
// sites — with the hit-rate counter showing the dedup.
func TestCorpusRobotsBodiesCollapseInParseCache(t *testing.T) {
	c, err := New(context.Background(), Config{Seed: 5, Scale: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	cache := robots.NewCache(0)
	k := len(Snapshots) - 1
	sites := c.Sites()
	for _, s := range sites {
		cache.Parse(c.RobotsBody(s, k))
	}
	st := cache.Stats()
	if int(st.Hits+st.Misses) != len(sites) {
		t.Fatalf("counter mismatch: %d lookups for %d sites", st.Hits+st.Misses, len(sites))
	}
	// Template diversity grows sublinearly with population (it is the set
	// of distinct agent-combination × path-set policies), so the collapse
	// factor improves with scale; at this test's 0.05 scale ~250
	// templates cover ~2k sites, the ROADMAP's "few hundred templates"
	// at 40k-site full scale.
	if st.Entries*5 > len(sites) {
		t.Fatalf("normalized key left %d entries for %d sites; want at least 5x collapse",
			st.Entries, len(sites))
	}
	rate := float64(st.Hits) / float64(len(sites))
	if rate < 0.85 {
		t.Fatalf("hit rate = %.3f over %d sites, want ≥ 0.85", rate, len(sites))
	}
	t.Logf("%d sites -> %d cached templates, hit rate %.3f", len(sites), st.Entries, rate)

	// The cached parse must agree with a verbatim parse on the decisions
	// the analyses make: explicit restriction of every Table-1-ish agent
	// at the root and at a partial-restriction path.
	for _, s := range sites[:50] {
		body := c.RobotsBody(s, k)
		cached, direct := cache.Parse(body), robots.ParseString(body)
		for _, agent := range []string{"GPTBot", "CCBot", "ClaudeBot", "Googlebot", "Bytespider"} {
			for _, path := range []string{"/", "/images/pic.png", "/admin/x"} {
				if got, want := cached.Allowed(agent, path), direct.Allowed(agent, path); got != want {
					t.Fatalf("site %s agent %s path %s: cached %v, direct %v",
						s.Domain, agent, path, got, want)
				}
			}
		}
	}
}
