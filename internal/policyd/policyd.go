// Package policyd is the online serving layer over the consent signals
// the paper measures: an in-memory crawl-policy decision service that
// answers "may agent U fetch path P on host H right now?" at wire speed.
//
// Every batch artifact in this repository — the longitudinal corpus, the
// §5 measurement sites, the §6 blocking surveys — encodes the same four
// mechanisms a crawler operator would have to consult before fetching:
// robots.txt groups, ai.txt directives, NoAI meta tags, and active
// (user-agent) blocking. policyd compiles those signals into an
// immutable, sharded Snapshot and serves single and batched Decision
// queries against it with zero allocations on the cached hot path.
// Snapshots swap atomically under live traffic (Service.Swap), so a
// running service hot-reloads as a corpus month advances or a scenario
// world mutates, exactly like a production rule-store push.
//
// Signal precedence mirrors how the measurement stack already composes
// the mechanisms (the scenario engine's log flush and measure.Classify):
// an active block means the request is never served, so it dominates
// everything (the 403 branch of the flush); robots.txt governs
// collection (the §5 verdicts); ai.txt governs use at training time
// (§2.2); the NoAI meta tag is the weakest, page-level hint. A query is
// denied when any applicable signal denies it, and the reported Signal
// is the highest-precedence denier.
package policyd

import (
	"context"
	"strings"
	"sync/atomic"

	"repro/internal/robots"
)

// Query asks whether one agent may fetch one path on one host. Agent may
// be a bare product token ("GPTBot") or a full User-Agent header —
// robots.txt matching extracts the token either way, and blocklists
// match by substring exactly as webserver blockers do. Host matching is
// exact (snapshot hosts are lowercase; Decide folds uppercase hosts on a
// slow path).
type Query struct {
	Host  string `json:"host"`
	Agent string `json:"agent"`
	Path  string `json:"path"`
}

// Action is the outcome class of a decision.
type Action uint8

const (
	// Allow: no applicable signal denies the fetch.
	Allow Action = iota
	// Deny: a consent signal (robots.txt, ai.txt, or a meta tag) denies
	// it; a compliant crawler must not fetch.
	Deny
	// Block: the host actively blocks the agent — the request would never
	// be served regardless of the crawler's compliance.
	Block
)

// String names the action.
func (a Action) String() string {
	switch a {
	case Allow:
		return "allow"
	case Deny:
		return "deny"
	case Block:
		return "block"
	default:
		return "unknown"
	}
}

// Signal identifies which mechanism won the decision, in precedence
// order: blocker > robots (explicit group > wildcard group) > ai.txt >
// meta tag > none.
type Signal uint8

const (
	// SignalNone: no signal applied (default allow, or unknown host).
	SignalNone Signal = iota
	// SignalBlocker: an active user-agent blocklist matched the agent.
	SignalBlocker
	// SignalRobotsAgent: a robots.txt group explicitly naming the
	// agent's product token decided the outcome.
	SignalRobotsAgent
	// SignalRobotsWildcard: the robots.txt wildcard group decided it.
	SignalRobotsWildcard
	// SignalAITxt: the host's ai.txt denied AI use of the path.
	SignalAITxt
	// SignalMeta: a NoAI/NoImageAI robots meta tag denied it.
	SignalMeta
)

// String names the signal.
func (s Signal) String() string {
	switch s {
	case SignalNone:
		return "none"
	case SignalBlocker:
		return "blocker"
	case SignalRobotsAgent:
		return "robots-agent"
	case SignalRobotsWildcard:
		return "robots-wildcard"
	case SignalAITxt:
		return "ai-txt"
	case SignalMeta:
		return "meta"
	default:
		return "unknown"
	}
}

// Decision is the service's answer to one Query.
type Decision struct {
	// Action is allow, deny, or block.
	Action Action
	// Signal is the mechanism that determined the action. For an Allow it
	// is the robots signal that affirmatively governed the agent (a site
	// whose robots.txt names GPTBot and allows it reports
	// SignalRobotsAgent), or SignalNone when no policy applied.
	Signal Signal
}

// Allowed reports whether the fetch may proceed.
func (d Decision) Allowed() bool { return d.Action == Allow }

// Service serves decisions from the current snapshot and hot-swaps
// snapshots atomically: queries racing a Swap see either the old or the
// new snapshot, never a mix, because a Decision is computed entirely
// from one immutable *Snapshot.
type Service struct {
	snap    atomic.Pointer[Snapshot]
	queries atomic.Uint64
	feed    *VersionFeed
}

// NewService returns a service answering from snap.
func NewService(snap *Snapshot) *Service {
	s := &Service{feed: NewVersionFeed(snap.Version)}
	s.snap.Store(snap)
	return s
}

// Current returns the snapshot queries are being answered from.
func (s *Service) Current() *Snapshot { return s.snap.Load() }

// Swap atomically installs a new snapshot, announces its version on the
// watch feed, and returns the previous snapshot. In-flight queries
// finish against whichever snapshot they loaded.
func (s *Service) Swap(snap *Snapshot) *Snapshot {
	mSwaps.Inc()
	prev := s.snap.Swap(snap)
	s.feed.Publish(snap.Version)
	return prev
}

// Watch subscribes to snapshot swaps: the returned channel receives the
// new version after each Swap (coalescing under a slow reader). Cancel
// with the returned func.
func (s *Service) Watch() (<-chan string, func()) { return s.feed.Watch() }

// Decide answers one query against the current snapshot.
func (s *Service) Decide(q Query) Decision {
	s.queries.Add(1)
	d := s.snap.Load().Decide(q)
	countDecision(d)
	return d
}

// DecideBatch answers every query against one consistent snapshot —
// batches never straddle a Swap. Results are appended to out (pass a
// pre-sized out[:0] to avoid allocation) and the filled slice returned.
func (s *Service) DecideBatch(qs []Query, out []Decision) []Decision {
	out, _ = s.DecideBatchVersioned(qs, out)
	return out
}

// DecideBatchVersioned is DecideBatch plus the version of the snapshot
// that answered — the whole batch, by construction. Both wires report
// it, so a client (or a fleet gateway) knows which snapshot it was told
// about.
func (s *Service) DecideBatchVersioned(qs []Query, out []Decision) ([]Decision, string) {
	s.queries.Add(uint64(len(qs)))
	mBatchSize.Observe(uint64(len(qs)))
	snap := s.snap.Load()
	// Decision counts accumulate on the stack and flush once per batch:
	// one shard pick per populated (action, signal) cell instead of one
	// per query.
	var counts [Block + 1][SignalMeta + 1]uint64
	for _, q := range qs {
		d := snap.Decide(q)
		if d.Action <= Block && d.Signal <= SignalMeta {
			counts[d.Action][d.Signal]++
		}
		out = append(out, d)
	}
	for a := range counts {
		for sig, n := range counts[a] {
			if n > 0 {
				mDecisions[a][sig].Add(n)
			}
		}
	}
	return out, snap.Version
}

// Answer implements Answerer: DecideBatchVersioned, which cannot fail.
func (s *Service) Answer(_ context.Context, qs []Query, out []Decision) ([]Decision, string, error) {
	out, version := s.DecideBatchVersioned(qs, out)
	return out, version, nil
}

// Stats is a point-in-time view of the service.
type Stats struct {
	// Queries is the number of decisions served since construction.
	Queries uint64 `json:"queries"`
	// Version labels the current snapshot.
	Version string `json:"version"`
	// Hosts and Shards describe the current snapshot's index.
	Hosts  int `json:"hosts"`
	Shards int `json:"shards"`
}

// Stats returns current counters and snapshot metadata.
func (s *Service) Stats() Stats {
	snap := s.snap.Load()
	return Stats{
		Queries: s.queries.Load(),
		Version: snap.Version,
		Hosts:   snap.hosts,
		Shards:  len(snap.shards),
	}
}

// Decide answers one query against this snapshot. The hot path — a host
// in the snapshot queried with an agent from the compiled roster —
// performs no allocations: host lookup is a shard-map probe, the agent
// resolves through the snapshot-wide roster index to precompiled
// per-host access views, and path matching reuses the robots.txt
// matcher's allocation-free routines.
func (sn *Snapshot) Decide(q Query) Decision {
	hp := sn.lookup(q.Host)
	if hp == nil {
		return Decision{Action: Allow, Signal: SignalNone}
	}
	id, known := sn.agentIDs[q.Agent]

	// Active blocking dominates: the request would never be served.
	if hp.blockPatterns != nil {
		blocked := false
		if known {
			blocked = hp.blocked[id]
		} else {
			blocked = matchesAnyFold(q.Agent, hp.blockPatterns)
		}
		if blocked {
			return Decision{Action: Block, Signal: SignalBlocker}
		}
	}

	// robots.txt: collection-time consent, the §5 measurement's frame.
	robotsSignal := SignalNone
	if hp.robots != nil {
		var acc robots.Access
		if known {
			acc = hp.access[id]
		} else {
			acc = hp.robots.Agent(q.Agent)
		}
		if acc.HasRules() {
			robotsSignal = SignalRobotsWildcard
			if acc.Explicit {
				robotsSignal = SignalRobotsAgent
			}
			if !acc.Allowed(q.Path) {
				return Decision{Action: Deny, Signal: robotsSignal}
			}
		}
	}

	// ai.txt: use-time consent (§2.2).
	if hp.ai != nil && !hp.ai.permitted(q.Path) {
		return Decision{Action: Deny, Signal: SignalAITxt}
	}

	// NoAI meta tags: the weakest, page-level hint.
	if hp.meta.denies(q.Path) {
		return Decision{Action: Deny, Signal: SignalMeta}
	}
	return Decision{Action: Allow, Signal: robotsSignal}
}

// matchesAnyFold is the slow-path blocklist check for agents outside the
// compiled roster: case-insensitive substring match against each
// pattern, the same semantics webserver UA blockers use.
func matchesAnyFold(agent string, patterns []string) bool {
	for _, p := range patterns {
		if p == "" {
			continue
		}
		if containsFold(agent, p) {
			return true
		}
	}
	return false
}

// containsFold reports whether s contains substr ASCII-case-
// insensitively without allocating (unlike strings.ToLower).
func containsFold(s, substr string) bool {
	if len(substr) == 0 {
		return true
	}
	if len(substr) > len(s) {
		return false
	}
	for i := 0; i+len(substr) <= len(s); i++ {
		if equalFoldAt(s, i, substr) {
			return true
		}
	}
	return false
}

func equalFoldAt(s string, off int, substr string) bool {
	for j := 0; j < len(substr); j++ {
		a, b := s[off+j], substr[j]
		if a == b {
			continue
		}
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}

// foldHost lowercases a host only when needed, so the common all-
// lowercase case stays allocation-free.
func foldHost(host string) string {
	for i := 0; i < len(host); i++ {
		if c := host[i]; 'A' <= c && c <= 'Z' {
			return strings.ToLower(host)
		}
	}
	return host
}
