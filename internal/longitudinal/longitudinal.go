// Package longitudinal implements the paper's §3 analyses over a corpus of
// historic robots.txt snapshots: the trend of AI-crawler restrictions
// (Figure 2), per-agent adoption curves (Figure 3), explicit allows and
// restriction removals (Figure 4, Table 4), and snapshot coverage
// (Table 3).
//
// The analysis consumes only rendered robots.txt text — every file is
// parsed with internal/robots and categorized with the paper's explicit-
// restriction notion (§3.1: a site counts as disallowing an AI crawler
// only when robots.txt names that crawler's user agent; blanket wildcard
// rules do not express AI-specific intent).
package longitudinal

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"repro/internal/agents"
	"repro/internal/corpus"
	"repro/internal/par"
	"repro/internal/robots"
	"repro/internal/stats"
)

// Result bundles every §3 analysis output.
type Result struct {
	// Fig2Top5k and Fig2Other are the Figure 2 series: percent of sites in
	// each tier that fully disallow at least one AI crawler user agent.
	Fig2Top5k stats.Series
	Fig2Other stats.Series
	// Fig3 maps each Figure 3 user agent to its series: percent of all
	// analysis sites that partially or fully disallow it.
	Fig3 map[string]stats.Series
	// Fig4Allowed counts sites whose robots.txt explicitly allows at least
	// one AI crawler, per snapshot (Figure 4's rising curve).
	Fig4Allowed stats.Series
	// Fig4Removed counts sites that removed at least one explicit AI
	// restriction in each inter-snapshot period (Figure 4's event series;
	// the first snapshot has no prior period and is always 0).
	Fig4Removed stats.Series
	// GPTBotRemovals is the number of distinct sites that removed an
	// explicit GPTBot restriction after its announcement (paper: 484).
	GPTBotRemovals int
	// Table3 reports per-snapshot corpus coverage.
	Table3 []Table3Row
	// Table4 lists sites that explicitly and fully allow GPTBot with the
	// snapshot where that was first observed (paper's Table 4).
	Table4 []AllowRow
	// MistakeRate is the fraction of sites whose final robots.txt has
	// authoring mistakes (paper §8.1: ~1%).
	MistakeRate float64
	// WildcardFullRate is the fraction of sites with a blanket
	// "User-agent: *; Disallow: /" (paper §3.1: <2%).
	WildcardFullRate float64
	// CrawlDelayRate is the fraction of sites still carrying the
	// deprecated Crawl-Delay extension (context: Sun et al. [108]).
	CrawlDelayRate float64
	// Top5kCount and OtherCount are the tier denominators.
	Top5kCount, OtherCount int
}

// Table3Row is one row of Table 3.
type Table3Row struct {
	Snapshot string
	Label    string
	Sites    int
	Robots   int
}

// AllowRow is one row of Table 4.
type AllowRow struct {
	Domain    string
	FirstSeen string // snapshot ID
}

// summary is the per-body categorization extract the analysis needs.
type summary struct {
	full       map[string]bool // Table-1 agents explicitly fully disallowed
	restrict   map[string]bool // explicitly partially-or-fully disallowed
	allowed    map[string]bool // explicitly allowed
	mistake    bool
	wildcard   bool
	crawlDelay bool
}

// siteCounts is one shard's accumulator. Every field merges with a
// commutative, associative operation (integer sums, set union, row
// append followed by a total sort), so the merged result is identical
// for any sharding and any worker count.
type siteCounts struct {
	fullCountTop   []int
	fullCountOther []int
	restrictCount  map[string][]int
	allowedCount   []int
	removedCount   []int
	gptRemovals    map[string]bool
	mistakes       int
	wildcards      int
	crawlDelays    int
	table4         []AllowRow
}

func newSiteCounts(nSnaps int) *siteCounts {
	sc := &siteCounts{
		fullCountTop:   make([]int, nSnaps),
		fullCountOther: make([]int, nSnaps),
		restrictCount:  make(map[string][]int, len(agents.Figure3Agents)),
		allowedCount:   make([]int, nSnaps),
		removedCount:   make([]int, nSnaps),
		gptRemovals:    make(map[string]bool),
	}
	for _, ua := range agents.Figure3Agents {
		sc.restrictCount[ua] = make([]int, nSnaps)
	}
	return sc
}

func (sc *siteCounts) merge(o *siteCounts) {
	for k := range o.fullCountTop {
		sc.fullCountTop[k] += o.fullCountTop[k]
		sc.fullCountOther[k] += o.fullCountOther[k]
		sc.allowedCount[k] += o.allowedCount[k]
		sc.removedCount[k] += o.removedCount[k]
	}
	for ua, counts := range o.restrictCount {
		dst := sc.restrictCount[ua]
		for k, v := range counts {
			dst[k] += v
		}
	}
	for d := range o.gptRemovals {
		sc.gptRemovals[d] = true
	}
	sc.mistakes += o.mistakes
	sc.wildcards += o.wildcards
	sc.crawlDelays += o.crawlDelays
	sc.table4 = append(sc.table4, o.table4...)
}

// accumulateSite folds one site's snapshot timeline into the accumulator.
func accumulateSite(c *corpus.Corpus, site *corpus.Site, table1Tokens map[string]string, sc *siteCounts) {
	bodies := c.RobotsBodies(site)
	nSnaps := len(bodies)
	var prevBody string
	var sum summary
	var prev summary
	for k, body := range bodies {
		if k == 0 || body != prevBody {
			sum = summarize(body, table1Tokens)
		}
		prevBody = body

		if len(sum.full) > 0 {
			if site.Top5k {
				sc.fullCountTop[k]++
			} else {
				sc.fullCountOther[k]++
			}
		}
		for _, ua := range agents.Figure3Agents {
			if sum.restrict[ua] {
				sc.restrictCount[ua][k]++
			}
		}
		if len(sum.allowed) > 0 {
			sc.allowedCount[k]++
		}
		if k > 0 {
			removed := false
			for ua := range prev.restrict {
				if !sum.restrict[ua] {
					removed = true
					if ua == "GPTBot" && k >= corpus.GPTBotAnnouncedIndex {
						sc.gptRemovals[site.Domain] = true
					}
				}
			}
			if removed {
				sc.removedCount[k]++
			}
		}
		if k == nSnaps-1 {
			if sum.mistake {
				sc.mistakes++
			}
			if sum.wildcard {
				sc.wildcards++
			}
			if sum.crawlDelay {
				sc.crawlDelays++
			}
			if sum.allowed["GPTBot"] {
				// First-seen scan for Table 4.
				first := firstAllowSnapshot(bodies, table1Tokens)
				sc.table4 = append(sc.table4, AllowRow{
					Domain:    site.Domain,
					FirstSeen: corpus.Snapshots[first].ID,
				})
			}
		}
		prev = sum
	}
}

// Analyze runs every §3 analysis over the corpus. The per-site pass —
// rendering and parsing every robots.txt snapshot — is the hot loop of
// the whole reproduction; it runs sharded on a workers-bounded pool
// (0 = GOMAXPROCS) with cancellation checked between shards, and its
// output is identical for every worker count.
func Analyze(ctx context.Context, c *corpus.Corpus, workers int) (*Result, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nSnaps := len(corpus.Snapshots)
	sites := c.Sites()
	if len(sites) == 0 {
		return nil, fmt.Errorf("longitudinal: empty corpus")
	}

	res := &Result{
		Fig3:       make(map[string]stats.Series, len(agents.Figure3Agents)),
		Top5kCount: c.Top5kCount(),
		OtherCount: len(sites) - c.Top5kCount(),
	}

	table1Tokens := make(map[string]string, len(agents.Table1)) // lower token -> UA
	for _, a := range agents.Table1 {
		table1Tokens[a.Token()] = a.UserAgent
	}

	total := newSiteCounts(nSnaps)
	var mergeMu sync.Mutex
	if err := par.Do(ctx, workers, len(sites), func(start, end int) {
		local := newSiteCounts(nSnaps)
		for _, site := range sites[start:end] {
			accumulateSite(c, site, table1Tokens, local)
		}
		mergeMu.Lock()
		total.merge(local)
		mergeMu.Unlock()
	}); err != nil {
		return nil, err
	}
	fullCountTop := total.fullCountTop
	fullCountOther := total.fullCountOther
	restrictCount := total.restrictCount
	allowedCount := total.allowedCount
	removedCount := total.removedCount
	gptRemovals := total.gptRemovals
	mistakes, wildcards, crawlDelays := total.mistakes, total.wildcards, total.crawlDelays
	res.Table4 = total.table4

	for k, snap := range corpus.Snapshots {
		label := snap.Date.Format("Jan 2006")
		pt := func(v float64) stats.Point {
			return stats.Point{Time: snap.Date, Label: label, Value: v}
		}
		res.Fig2Top5k.Points = append(res.Fig2Top5k.Points,
			pt(stats.Percent(fullCountTop[k], res.Top5kCount)))
		res.Fig2Other.Points = append(res.Fig2Other.Points,
			pt(stats.Percent(fullCountOther[k], res.OtherCount)))
		for _, ua := range agents.Figure3Agents {
			s := res.Fig3[ua]
			s.Name = ua
			s.Points = append(s.Points, pt(stats.Percent(restrictCount[ua][k], len(sites))))
			res.Fig3[ua] = s
		}
		res.Fig4Allowed.Points = append(res.Fig4Allowed.Points, pt(float64(allowedCount[k])))
		res.Fig4Removed.Points = append(res.Fig4Removed.Points, pt(float64(removedCount[k])))

		sitesN, robotsN := c.PresenceCounts(k)
		res.Table3 = append(res.Table3, Table3Row{
			Snapshot: snap.ID, Label: snap.Label, Sites: sitesN, Robots: robotsN,
		})
	}
	res.Fig2Top5k.Name = "Stable Top 5k"
	res.Fig2Other.Name = "Other Sites"
	res.Fig4Allowed.Name = "Explicitly Allowed"
	res.Fig4Removed.Name = "Removed Restrictions"
	res.GPTBotRemovals = len(gptRemovals)
	res.MistakeRate = float64(mistakes) / float64(len(sites))
	res.WildcardFullRate = float64(wildcards) / float64(len(sites))
	res.CrawlDelayRate = float64(crawlDelays) / float64(len(sites))
	sortAllowRows(res.Table4)
	return res, nil
}

// summarize parses one robots.txt body and extracts the categorization the
// analysis needs: explicit restriction levels and explicit allows for the
// Table 1 user agents, plus lint facts.
func summarize(body string, table1Tokens map[string]string) summary {
	rb := robots.ParseString(body)
	sum := summary{
		full:       make(map[string]bool),
		restrict:   make(map[string]bool),
		allowed:    make(map[string]bool),
		mistake:    rb.HasMistakes(),
		wildcard:   rb.WildcardFullDisallow(),
		crawlDelay: hasCrawlDelay(rb),
	}
	// Only user agents the file names explicitly can be explicitly
	// restricted or allowed; AgentTokens narrows the query set.
	for _, tok := range rb.AgentTokens() {
		ua, ok := table1Tokens[lower(tok)]
		if !ok {
			continue
		}
		if lvl, explicit := rb.ExplicitRestriction(ua); explicit && lvl.Restricted() {
			sum.restrict[ua] = true
			if lvl == robots.FullyDisallowed {
				sum.full[ua] = true
			}
		}
		if rb.ExplicitlyAllows(ua) {
			sum.allowed[ua] = true
		}
	}
	return sum
}

// hasCrawlDelay reports whether any recorded extension is a Crawl-Delay.
func hasCrawlDelay(rb *robots.Robots) bool {
	for _, ext := range rb.Extensions {
		if ext.Key == "crawl-delay" || ext.Key == "crawldelay" {
			return true
		}
	}
	return false
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
	return string(b)
}

// firstAllowSnapshot finds the first snapshot where a site's robots.txt,
// bodies as RobotsBodies returns them, explicitly allows GPTBot.
func firstAllowSnapshot(bodies []string, table1Tokens map[string]string) int {
	var prevBody string
	var sum summary
	for k, body := range bodies {
		if k == 0 || body != prevBody {
			sum = summarize(body, table1Tokens)
		}
		prevBody = body
		if sum.allowed["GPTBot"] {
			return k
		}
	}
	return len(bodies) - 1
}

// sortAllowRows orders Table 4 by first-seen snapshot, then domain.
func sortAllowRows(rows []AllowRow) {
	sort.Slice(rows, func(i, j int) bool {
		ai, bi := corpus.SnapshotIndex(rows[i].FirstSeen), corpus.SnapshotIndex(rows[j].FirstSeen)
		if ai != bi {
			return ai < bi
		}
		return rows[i].Domain < rows[j].Domain
	})
}
