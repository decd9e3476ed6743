package policyd

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/agents"
	"repro/internal/aitxt"
	"repro/internal/metatags"
	"repro/internal/par"
	"repro/internal/robots"
	"repro/internal/useragent"
)

// HostConfig is the raw policy surface of one host, as a crawler (or a
// measurement pipeline) would observe it on the wire.
type HostConfig struct {
	// RobotsTxt is the robots.txt body; "" means the host serves none.
	RobotsTxt string
	// AITxt is the ai.txt body; "" means none.
	AITxt string
	// MetaHTML is homepage markup scanned for robots meta directives
	// (noai / noimageai); "" means none.
	MetaHTML string
	// Blocklist holds user-agent substrings the host actively blocks;
	// nil means no active blocking.
	Blocklist []string
}

// hostPolicy is a host's query-ready form: the parsed artifacts of each
// signal package plus the roster precomputations.
type hostPolicy struct {
	robots *robots.Robots
	// access copies the robots view per roster agent (indexed by
	// agentIDs), so a roster query is one in-place read instead
	// of a search of the Robots value's view table. It is shared,
	// read-only, by every host whose body parses to the same
	// *robots.Robots, so a few templates' views serve the whole snapshot.
	access []robots.Access
	ai     *aitxt.Policy
	meta   metaPolicy
	// blockPatterns is nil when the host does not block; blocked
	// precomputes the roster verdicts.
	blockPatterns []string
	blocked       []bool

	src HostConfig
}

// Snapshot is an immutable policy index: host to parsed artifacts
// (robots.Robots, aitxt.Policy, meta directives, blocklist), plus the
// robots views and block verdicts precomputed per roster agent. The
// signal semantics live in the robots, aitxt and useragent packages;
// the snapshot only indexes and composes them. Build one with a Builder
// (or FromCorpus) and serve it through a Service; all methods are safe
// for unlimited concurrent use.
type Snapshot struct {
	// Version labels the snapshot in stats output ("2024-42", …).
	Version string

	hosts  map[string]*hostPolicy
	reused int
}

// ReusedHosts reports how many hosts this snapshot shares, compiled,
// with the Builder's Prev snapshot — the incremental-recompile hit
// count. Zero for full builds.
func (sn *Snapshot) ReusedHosts() int { return sn.reused }

// lookup returns the compiled policy for host, folding case on a slow
// path, or nil when the host is not in the snapshot.
func (sn *Snapshot) lookup(host string) *hostPolicy {
	return sn.hosts[foldHost(host)]
}

// Hosts returns the snapshot's host names, sorted.
func (sn *Snapshot) Hosts() []string {
	out := make([]string, 0, len(sn.hosts))
	for h := range sn.hosts {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of indexed hosts.
func (sn *Snapshot) Len() int { return len(sn.hosts) }

// roster is the agent set every snapshot precompiles per host: every
// Table 1 product token plus the traditional search crawler and a
// browser token, so both AI and non-AI queries hit the allocation-free
// path. Queries for agents outside it are still answered correctly,
// through the slow path: the blocklist is scanned with
// useragent.MatchesAny and the robots view comes from
// robots.Robots.Agent; neither allocates nor keeps anything per agent.
var roster = append(agents.Tokens(), "Googlebot", "Mozilla")

// agentIDs maps each roster agent to its index in the per-host
// access and blocked slices.
var agentIDs = func() map[string]int {
	ids := make(map[string]int, len(roster))
	for i, a := range roster {
		ids[a] = i
	}
	return ids
}()

// Builder stages hosts and compiles them into a Snapshot. Add every
// host, then call Build once; builders are not safe for concurrent use
// and must not be reused after Build.
type Builder struct {
	// Prev, when set, enables incremental recompilation: a staged host
	// whose config is policy-equivalent to its compiled form in Prev
	// (robots.txt equal under the normalized parse-cache key, everything
	// else exactly equal) reuses Prev's compiled state instead of
	// compiling. Sharing is safe because snapshots are immutable.
	Prev *Snapshot

	hosts   []string
	configs []HostConfig
}

// Add stages one host. Later Adds of the same host win.
func (b *Builder) Add(host string, cfg HostConfig) {
	b.hosts = append(b.hosts, foldHost(host))
	b.configs = append(b.configs, cfg)
}

// Build compiles the staged hosts on a workers-bounded pool (0 means
// GOMAXPROCS) into an immutable snapshot. robots.txt bodies parse
// through the shared content-keyed cache, so repeated templates compile
// once and every host sharing a parsed body shares its roster views.
func (b *Builder) Build(ctx context.Context, version string, workers int) (*Snapshot, error) {
	sn := &Snapshot{
		Version: version,
		hosts:   make(map[string]*hostPolicy, len(b.hosts)),
	}
	var reused atomic.Int64
	compiled := make([]*hostPolicy, len(b.hosts))
	if err := par.Do(ctx, workers, len(b.hosts), func(start, end int) {
		n := 0
		for i := start; i < end; i++ {
			if b.Prev != nil {
				if hp := b.Prev.lookup(b.hosts[i]); hp != nil {
					if r := reuseHost(hp, b.configs[i]); r != nil {
						compiled[i] = r
						n++
						continue
					}
				}
			}
			compiled[i] = compileHost(b.configs[i])
		}
		if n > 0 {
			reused.Add(int64(n))
		}
	}); err != nil {
		return nil, err
	}
	// Sites mostly copy a few templates and the parse cache folds each
	// to one *robots.Robots, so thousands of fresh hosts share a few
	// roster view slices that stay cache-resident while serving. Reused
	// hosts already carry theirs.
	views := make(map[*robots.Robots][]robots.Access)
	for _, hp := range compiled {
		if hp.robots == nil || hp.access != nil {
			continue
		}
		access, ok := views[hp.robots]
		if !ok {
			access = make([]robots.Access, len(roster))
			for i, a := range roster {
				access[i] = *hp.robots.Agent(a)
			}
			views[hp.robots] = access
		}
		hp.access = access
	}
	sn.reused = int(reused.Load())
	if sn.reused > 0 {
		mCompileReused.Add(uint64(sn.reused))
	}
	if fresh := len(b.hosts) - sn.reused; fresh > 0 {
		mCompileFresh.Add(uint64(fresh))
	}
	for i, host := range b.hosts {
		sn.hosts[host] = compiled[i]
	}
	return sn, nil
}

// reuseHost returns a compiled policy equivalent to compiling cfg, built
// from hp (a previous snapshot's compiled form of the same host), or nil
// when cfg's policy may differ and must compile for real. robots.txt
// bodies compare under the normalized parse-cache key — per-site comment
// and Sitemap lines churn between corpus months without changing rule
// semantics — while the other three mechanisms compare exactly.
func reuseHost(hp *hostPolicy, cfg HostConfig) *hostPolicy {
	old := hp.src
	if old.AITxt != cfg.AITxt || old.MetaHTML != cfg.MetaHTML {
		return nil
	}
	if len(old.Blocklist) != len(cfg.Blocklist) {
		return nil
	}
	for i := range old.Blocklist {
		if old.Blocklist[i] != cfg.Blocklist[i] {
			return nil
		}
	}
	if old.RobotsTxt == cfg.RobotsTxt {
		return hp
	}
	if !robots.EqualNormalized(old.RobotsTxt, cfg.RobotsTxt) {
		return nil
	}
	// Same rule semantics, different verbatim body: share the compiled
	// state, roster views included, but carry the new source so Source()
	// stays faithful.
	cp := *hp
	cp.src = cfg
	return &cp
}

// compileHost turns one host's raw policy surface into its query form.
func compileHost(cfg HostConfig) *hostPolicy {
	hp := &hostPolicy{src: cfg}
	if cfg.RobotsTxt != "" {
		hp.robots = robots.ParseCached(cfg.RobotsTxt)
	}
	if cfg.AITxt != "" {
		hp.ai = aitxt.ParseString(cfg.AITxt)
	}
	if cfg.MetaHTML != "" {
		d := metatags.Scan(cfg.MetaHTML)
		hp.meta = metaPolicy{noAI: d.NoAI, noImageAI: d.NoImageAI}
	}
	if cfg.Blocklist != nil {
		hp.blockPatterns = cfg.Blocklist
		hp.blocked = make([]bool, len(roster))
		for i, a := range roster {
			_, hp.blocked[i] = useragent.MatchesAny(a, cfg.Blocklist)
		}
	}
	return hp
}

// metaPolicy is the compiled form of a page's robots meta directives.
type metaPolicy struct {
	noAI      bool
	noImageAI bool
}

// denies reports whether the directives deny AI use of the path: noai
// denies everything, noimageai denies image resources (the same
// classification ai.txt applies).
func (m metaPolicy) denies(path string) bool {
	if m.noAI {
		return true
	}
	return m.noImageAI && aitxt.MediaOf(path) == aitxt.MediaImage
}

// String renders a compact identity for logs.
func (sn *Snapshot) String() string {
	return fmt.Sprintf("policyd.Snapshot{%s: %d hosts}", sn.Version, len(sn.hosts))
}
