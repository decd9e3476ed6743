package policyd

import (
	"context"
	"fmt"
	"time"

	"repro/internal/agents"
	"repro/internal/aitxt"
	"repro/internal/blocking"
	"repro/internal/corpus"
	"repro/internal/stats"
)

// Enrichment rates for the signals the corpus does not model itself,
// calibrated to the paper's population measurements so a compiled
// snapshot carries all four mechanisms in realistic proportions.
const (
	// aiTxtRate approximates ai.txt adoption: a niche mechanism (§2.2),
	// a little above the NoAI-tag rate.
	aiTxtRate = 0.015
	// noAIRate / noImageAIRate reproduce the §2.2 top-10k scan
	// proportions (17 and 16 of 10,000; most adopters set both).
	noAIRate      = 17.0 / 10_000
	noImageAIRate = 16.0 / 10_000
	// blockRate is the §6.2 active-blocking adoption (1,433 of 10,000).
	blockRate = blocking.PaperUABlockRate
)

// FromCorpus compiles one corpus snapshot into a servable policy index:
// each analysis site contributes the robots.txt it serves at snapshot
// index snap (rendered by the same code the longitudinal analysis
// parses), and a deterministic, seed-derived minority of sites
// additionally carry the signals the corpus does not model — an ai.txt,
// NoAI meta tags, and active user-agent blocking — at the paper's
// adoption rates. Which sites carry which extra signal is stable across
// snapshot indices; only the policies themselves evolve (robots.txt
// follows the site's event timeline, blocklists hold the agents
// announced by the snapshot date), so swapping between FromCorpus
// snapshots is exactly a policy-push hot reload.
func FromCorpus(ctx context.Context, c *corpus.Corpus, snap, workers int) (*Snapshot, error) {
	return FromCorpusIncremental(ctx, c, snap, workers, nil)
}

// FromCorpusIncremental is FromCorpus reusing prev (a snapshot built from
// the same corpus at another index) for hosts whose policy surface is
// unchanged: most sites' robots.txt differs between adjacent months only
// in per-site comment/Sitemap lines, which the normalized parse-cache
// key already proves semantics-preserving, so a month-advance reload
// recompiles only the hosts whose rules actually moved. prev may be nil
// (full build). The result is decision-identical to a full build. A snap
// outside corpus.Snapshots is an error.
func FromCorpusIncremental(ctx context.Context, c *corpus.Corpus, snap, workers int, prev *Snapshot) (*Snapshot, error) {
	if snap < 0 || snap >= len(corpus.Snapshots) {
		return nil, fmt.Errorf("policyd: snapshot index %d outside [0, %d)", snap, len(corpus.Snapshots))
	}
	defer mCompileNS.ObserveSince(time.Now())
	meta := corpus.Snapshots[snap]

	// The blocklist a provider would push at this date: every announced
	// real crawler, the same derivation the scenario engine's blockers
	// use. Shared across hosts — the compiled roster verdicts are
	// per-host, but the pattern slice is one allocation.
	var blockPatterns []string
	for _, a := range agents.RealCrawlers() {
		if agents.AnnouncedBy(a.UserAgent, meta.Date) {
			blockPatterns = append(blockPatterns, a.UserAgent)
		}
	}

	sites := c.Sites()
	b := &Builder{Prev: prev}
	// Per-site forks derive sequentially from one policyd stream (Fork
	// consumes parent state); the draws below are per-site and ordered,
	// so enrichment is bit-identical at any worker count and independent
	// of the snapshot index.
	rn := stats.NewRand(c.Config().Seed).Fork("policyd")
	for _, s := range sites {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sr := rn.Fork(s.Domain)
		cfg := HostConfig{RobotsTxt: c.RobotsBody(s, snap)}
		if sr.Bool(aiTxtRate) {
			cfg.AITxt = siteAITxt(sr)
		}
		noai := sr.Bool(noAIRate)
		noimg := sr.Bool(noImageAIRate)
		if noai || noimg {
			cfg.MetaHTML = metaHomepage(noai, noimg)
		}
		if sr.Bool(blockRate) {
			cfg.Blocklist = blockPatterns
		}
		b.Add(s.Domain, cfg)
	}
	return b.Build(ctx, meta.ID, workers)
}

// siteAITxt renders a plausible artist-site ai.txt: images always
// denied, text denied for some, with a gallery path pattern.
func siteAITxt(sr *stats.Rand) string {
	media := map[aitxt.MediaType]bool{aitxt.MediaImage: false}
	if sr.Bool(0.4) {
		media[aitxt.MediaText] = false
	}
	var disallow []string
	if sr.Bool(0.5) {
		disallow = []string{"/gallery/", "*.png"}
	}
	return aitxt.Generate(media, disallow, nil)
}

// metaHomepage renders the homepage head carrying the NoAI directives,
// in the DeviantArt style the §2.2 scan looks for.
func metaHomepage(noai, noimg bool) string {
	content := ""
	switch {
	case noai && noimg:
		content = "noai, noimageai"
	case noai:
		content = "noai"
	default:
		content = "noimageai"
	}
	return `<html><head><meta name="robots" content="` + content +
		`"><title>protected</title></head><body><p>art</p></body></html>`
}
