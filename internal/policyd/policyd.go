// Package policyd is the online serving layer over the consent signals
// the paper measures: an in-memory crawl-policy decision service that
// answers "may agent U fetch path P on host H right now?" at wire speed.
//
// Every batch artifact in this repository — the longitudinal corpus, the
// §5 measurement sites, the §6 blocking surveys — encodes the same four
// mechanisms a crawler operator would have to consult before fetching:
// robots.txt groups, ai.txt directives, NoAI meta tags, and active
// (user-agent) blocking. policyd compiles those signals into an
// immutable Snapshot and answers batches of Decision queries against
// it (Service.Answer, one query being a batch of one) with zero
// allocations on the cached hot path.
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
	"repro/internal/useragent"
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
	// allow: no applicable signal denies the fetch.
	allow Action = iota
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
	case allow:
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
	// signalNone: no signal applied (default allow, or unknown host).
	signalNone Signal = iota
	// signalBlocker: an active user-agent blocklist matched the agent.
	signalBlocker
	// signalRobotsAgent: a robots.txt group explicitly naming the
	// agent's product token decided the outcome.
	signalRobotsAgent
	// signalRobotsWildcard: the robots.txt wildcard group decided it.
	signalRobotsWildcard
	// signalAITxt: the host's ai.txt denied AI use of the path.
	signalAITxt
	// signalMeta: a NoAI/NoImageAI robots meta tag denied it.
	signalMeta
)

// String names the signal.
func (s Signal) String() string {
	switch s {
	case signalNone:
		return "none"
	case signalBlocker:
		return "blocker"
	case signalRobotsAgent:
		return "robots-agent"
	case signalRobotsWildcard:
		return "robots-wildcard"
	case signalAITxt:
		return "ai-txt"
	case signalMeta:
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
	// signalRobotsAgent), or signalNone when no policy applied.
	Signal Signal
}

// Allowed reports whether the fetch may proceed.
func (d Decision) Allowed() bool { return d.Action == allow }

// Service serves decisions from the current snapshot and hot-swaps
// snapshots atomically: queries racing a Swap see either the old or the
// new snapshot, never a mix, because a Decision is computed entirely
// from one immutable *Snapshot.
type Service struct {
	snap    atomic.Pointer[Snapshot]
	queries atomic.Uint64
}

// NewService returns a service answering from snap.
func NewService(snap *Snapshot) *Service {
	s := &Service{}
	s.snap.Store(snap)
	return s
}

// Current returns the snapshot queries are being answered from.
func (s *Service) Current() *Snapshot { return s.snap.Load() }

// Swap atomically installs a new snapshot and returns the previous one.
// In-flight queries finish against whichever snapshot they loaded;
// every answer names its snapshot's version, so clients learn of the
// swap from the next one.
func (s *Service) Swap(snap *Snapshot) *Snapshot {
	mSwaps.Inc()
	return s.snap.Swap(snap)
}

// DecideBatchVersioned answers every query against one consistent
// snapshot — batches never straddle a Swap — and returns the version of
// that snapshot. Results are appended to out (pass a pre-sized out[:0]
// to avoid allocation) and the filled slice returned. Both wires report
// the version, so a client (or a fleet gateway) knows which snapshot it
// was told about.
func (s *Service) DecideBatchVersioned(qs []Query, out []Decision) ([]Decision, string) {
	s.queries.Add(uint64(len(qs)))
	mBatchSize.Observe(uint64(len(qs)))
	snap := s.snap.Load()
	// Decision counts accumulate on the stack and flush once per batch:
	// one shard pick per populated (action, signal) cell instead of one
	// per query.
	var counts [Block + 1][signalMeta + 1]uint64
	for _, q := range qs {
		d := snap.Decide(q)
		if d.Action <= Block && d.Signal <= signalMeta {
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
// Every program asks the service through it; only the benchmark of
// record times DecideBatchVersioned directly.
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
	// Hosts is the current snapshot's host count.
	Hosts int `json:"hosts"`
}

// Stats returns current counters and snapshot metadata.
func (s *Service) Stats() Stats {
	snap := s.snap.Load()
	return Stats{
		Queries: s.queries.Load(),
		Version: snap.Version,
		Hosts:   snap.Len(),
	}
}

// Decide answers one query against this snapshot by composing the
// signal packages in precedence order: useragent.MatchesAny (or its
// precomputed roster verdict), robots.Access.Allowed, aitxt's
// Policy.Permitted, then the meta directives classified by
// aitxt.MediaOf. The hot path is a host in the snapshot queried with an
// agent from the compiled roster: host lookup is one map probe, and the
// agent resolves through the snapshot-wide roster index to a robots
// view shared by every host with the same parsed robots.txt, read in
// place. Any other agent scans the blocklist and picks its view from
// the parsed robots.txt's own table (robots.Robots.Agent, built when
// Build copied the roster views), which keeps nothing per agent. Neither
// path allocates.
func (sn *Snapshot) Decide(q Query) Decision {
	hp := sn.lookup(q.Host)
	if hp == nil {
		return Decision{Action: allow, Signal: signalNone}
	}
	id, known := agentIDs[q.Agent]

	// Active blocking dominates: the request would never be served.
	if hp.blockPatterns != nil {
		blocked := false
		if known {
			blocked = hp.blocked[id]
		} else {
			_, blocked = useragent.MatchesAny(q.Agent, hp.blockPatterns)
		}
		if blocked {
			return Decision{Action: Block, Signal: signalBlocker}
		}
	}

	// robots.txt: collection-time consent, the §5 measurement's frame.
	robotsSignal := signalNone
	if hp.robots != nil {
		var acc *robots.Access
		if known {
			acc = &hp.access[id]
		} else {
			acc = hp.robots.Agent(q.Agent)
		}
		if acc.HasRules() {
			robotsSignal = signalRobotsWildcard
			if acc.Explicit {
				robotsSignal = signalRobotsAgent
			}
			if !acc.Allowed(q.Path) {
				return Decision{Action: Deny, Signal: robotsSignal}
			}
		}
	}

	// ai.txt: use-time consent (§2.2).
	if hp.ai != nil && !hp.ai.Permitted(q.Path) {
		return Decision{Action: Deny, Signal: signalAITxt}
	}

	// NoAI meta tags: the weakest, page-level hint.
	if hp.meta.denies(q.Path) {
		return Decision{Action: Deny, Signal: signalMeta}
	}
	return Decision{Action: allow, Signal: robotsSignal}
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
