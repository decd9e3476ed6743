package scenario

import (
	"sort"
	"strings"
	"time"

	"repro/internal/agents"
	"repro/internal/blocking"
	"repro/internal/robots"
	"repro/internal/stats"
	"repro/internal/useragent"
	"repro/internal/webserver"
)

// The engine's per-site state. A hot site-month costs a live webserver,
// crawler instances and a log; a cold site is under 7 bytes of flat
// columnar state — one array per field indexed by dense site id —
// because everything else about a site's month is derivable: its policy
// is one of a handful of interned renderings, its blocker rule list is a
// function of the month, and its crawl schedule follows from the roster
// alone.

// bitset is a flat bit array indexed by dense site id.
type bitset []uint64

func newBitset(n int) bitset    { return make(bitset, (n+63)/64) }
func (b bitset) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }
func (b bitset) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }

// tailState is the whole site population in columnar form. A worker
// plans the 64-site chunks it claims and advances their cold sites, and a
// chunk is one bitset word, so the arrays — bitsets included — are
// shared without locks. A pinned site's months run on carry's one-site
// copy instead: pinned sites are claimed one at a time, so workers
// carrying sites of one word never write it.
type tailState struct {
	adoptMonth []int16  // month the site adopts; -1 = never
	frozen     []uint16 // hand-written list size at adoption
	policyID   []uint16 // current policy (policies index); 0 = none

	perAgent  bitset // writes a per-agent list rather than wildcard
	managed   bitset // delegates the list to the managed service
	blocker   bitset // behind the active-blocking provider
	adopted   bitset // policy currently published
	blockerOn bitset // provider blocking currently enabled
}

func newTailState(n int) *tailState {
	return &tailState{
		adoptMonth: make([]int16, n),
		frozen:     make([]uint16, n),
		policyID:   make([]uint16, n),
		perAgent:   newBitset(n),
		managed:    newBitset(n),
		blocker:    newBitset(n),
		adopted:    newBitset(n),
		blockerOn:  newBitset(n),
	}
}

// carry makes t, a one-site state, site i of src as planned: its months
// then write only t. It reads none of the bits a month writes, which the
// site's chunk neighbours may be writing in src.
func (t *tailState) carry(src *tailState, i int) {
	t.adoptMonth[0], t.frozen[0], t.policyID[0] = src.adoptMonth[i], src.frozen[i], src.policyID[i]
	for _, b := range [...]struct{ dst, src bitset }{
		{t.perAgent, src.perAgent}, {t.managed, src.managed}, {t.blocker, src.blocker},
	} {
		b.dst[0] = 0
		if b.src.get(i) {
			b.dst.set(0)
		}
	}
	t.adopted[0], t.blockerOn[0] = 0, 0
}

// bytes reports the steady-state columnar footprint.
func (t *tailState) bytes() int {
	return 2*len(t.adoptMonth) + 2*len(t.frozen) + 2*len(t.policyID) +
		8*(len(t.perAgent)+len(t.managed)+len(t.blocker)+len(t.adopted)+len(t.blockerOn))
}

// policyDef is one interned robots.txt policy: the rendered body, its
// parsed form, and a per-agent decision bitset — bit r set when the
// policy restricts roster token r at the root. The bits are compiled
// once per (policy, fleet) like a policyd snapshot shard, so the tail
// replay path answers "does this policy apply to this crawler" with a
// single bit probe instead of walking robots groups.
type policyDef struct {
	body      string
	parsed    *robots.Robots
	restricts bitset
}

// blockerDef is one interned provider rule list; every blocker-enabled
// site shares the month's immutable instance.
type blockerDef struct {
	patterns []string
	blocker  webserver.Blocker
}

// tierWorld is everything the engine precomputes once per run —
// O(months + roster), independent of site count: interned policies and
// blocker rule lists, per-month derived ids, and the roster's observable
// identity.
type tierWorld struct {
	sp     Spec
	start  time.Time
	roster []resolvedCrawler

	// tokens interns the product tokens roster traffic is logged under;
	// tokenIndex inverts it, rosterToken maps roster entries into it.
	tokens      []string
	tokenIndex  map[string]int
	rosterToken []int
	// siteLimits holds the roster's positive SiteLimits, ascending.
	siteLimits []int

	policies []policyDef // index 0: no robots.txt
	// wildcardID and measurementID are the date-free adoption styles;
	// managedID/frozenID vary by month because their rendered bodies
	// embed the rule-list date.
	wildcardID        uint16
	measurementID     uint16
	measurementFrozen uint16
	managedID         []uint16
	frozenID          []uint16
	frozenCount       []uint16

	// blockers holds the interned provider rule lists (index 0: none);
	// blockerID[m] is the list a rollout or refresh at month m installs,
	// announced[m] the announced-agent count the gap metric uses.
	blockers  []blockerDef
	blockerID []uint16
	announced []int
}

// newTierWorld precomputes the run's interned policy and blocker
// universe. Policy bodies come from four renderers, two of them dated,
// so the table holds at most 2+2*months entries however many sites run.
func newTierWorld(sp Spec, roster []resolvedCrawler, start time.Time) *tierWorld {
	w := &tierWorld{sp: sp, start: start, roster: roster}

	w.tokenIndex = make(map[string]int)
	w.rosterToken = make([]int, len(roster))
	for r, rc := range roster {
		tok := useragent.ProductToken(useragent.FullUA(rc.spec.Token, "1.0"))
		id, ok := w.tokenIndex[tok]
		if !ok {
			id = len(w.tokens)
			w.tokens = append(w.tokens, tok)
			w.tokenIndex[tok] = id
		}
		w.rosterToken[r] = id
		if l := rc.spec.SiteLimit; l > 0 {
			w.siteLimits = append(w.siteLimits, l)
		}
	}
	sort.Ints(w.siteLimits)

	w.policies = []policyDef{{}}
	byBody := make(map[string]uint16)
	intern := func(body string) uint16 {
		if id, ok := byBody[body]; ok {
			return id
		}
		parsed := robots.ParseCached(body)
		def := policyDef{body: body, parsed: parsed, restricts: newBitset(len(w.tokens))}
		for t, tok := range w.tokens {
			if !parsed.Allowed(tok, "/") {
				def.restricts.set(t)
			}
		}
		id := uint16(len(w.policies))
		w.policies = append(w.policies, def)
		byBody[body] = id
		return id
	}

	w.wildcardID = intern("User-agent: *\nDisallow: /\n")
	mb := robots.NewBuilder()
	for _, tok := range agents.Tokens() {
		mb.Group(tok).DisallowAll()
	}
	w.measurementID = intern(mb.String())
	w.measurementFrozen = uint16(len(agents.Tokens()))

	M := sp.Months
	w.managedID = make([]uint16, M)
	w.frozenID = make([]uint16, M)
	w.frozenCount = make([]uint16, M)
	w.announced = make([]int, M)
	w.blockerID = make([]uint16, M)
	w.blockers = []blockerDef{{}}
	byPatterns := make(map[string]uint16)
	for m := 0; m < M; m++ {
		now := start.AddDate(0, m, 0)
		w.managedID[m] = intern(blockAll.Render(now))

		frozen := blockAll.BlockedAgents(now)
		w.frozenCount[m] = uint16(len(frozen))
		w.announced[m] = len(frozen)
		fb := robots.NewBuilder()
		fb.Comment("hand-maintained robots.txt — list written " + now.Format("2006-01-02"))
		if len(frozen) > 0 {
			fb.Group(frozen...).DisallowAll()
		}
		fb.Group("*").Disallow()
		w.frozenID[m] = intern(fb.String())

		var patterns []string
		for _, a := range agents.RealCrawlers() {
			if agents.AnnouncedBy(a.UserAgent, now) {
				patterns = append(patterns, a.UserAgent)
			}
		}
		key := strings.Join(patterns, "\n")
		id, ok := byPatterns[key]
		if !ok {
			id = uint16(len(w.blockers))
			w.blockers = append(w.blockers, blockerDef{
				patterns: patterns,
				blocker:  &blocking.UABlocker{Patterns: patterns, Style: blocking.StyleForbidden},
			})
			byPatterns[key] = id
		}
		w.blockerID[m] = id
	}
	return w
}

// activeBlockerID is the provider rule list in force at month m for a
// site whose blocking is enabled: frozen at the rollout month, or the
// month's own list under monthly refresh.
func (w *tierWorld) activeBlockerID(m int) uint16 {
	bm := w.sp.Blocking.StartMonth
	if w.sp.Blocking.RefreshMonthly && m > bm {
		bm = m
	}
	return w.blockerID[bm]
}

// restrictsFunc returns the root-restriction predicate for a policy id,
// answered from the precompiled per-agent decision bits, plus the parsed
// policy for per-path checks. Tokens outside the interned fleet (none in
// practice — only roster crawlers generate traffic) fall back to a live
// robots walk so the predicate stays exact.
func (w *tierWorld) restrictsFunc(pid uint16) (func(string) bool, *robots.Robots) {
	if pid == 0 {
		return func(string) bool { return false }, nil
	}
	pol := &w.policies[pid]
	return func(tok string) bool {
		if t, ok := w.tokenIndex[tok]; ok {
			return pol.restricts.get(t)
		}
		return !pol.parsed.Allowed(tok, "/")
	}, pol.parsed
}

// limitBucket is the number of roster site limits at or below site i;
// the roster entries SiteLimit cuts from site i are exactly those whose
// limit is among them.
func (w *tierWorld) limitBucket(i int) uint8 {
	return uint8(sort.SearchInts(w.siteLimits, i+1))
}

// planSite stores site i's drawPlan result in the columns; rn is the
// calling worker's scratch source.
func (w *tierWorld) planSite(t *tailState, rn *stats.Rand, i int, seed int64, curve []float64) {
	adoptMonth, perAgent, managed, blocker := drawPlan(&w.sp, curve, rn, i, seed)
	t.adoptMonth[i] = int16(adoptMonth)
	if perAgent {
		t.perAgent.set(i)
	}
	if managed {
		t.managed.set(i)
	}
	if blocker {
		t.blocker.set(i)
	}
}

// waveIndex reports whether roster entry cs has a crawl wave at month m
// and, if so, which visit in its per-site schedule it is (0-based). A
// crawler's visit chain is fully derivable — visits fall at
// FirstMonth + k*Cadence while k stays under MaxVisits and the month
// within [FirstMonth, LastMonth] — so no schedule is stored: a worker
// derives it for whichever site-month it advances.
func waveIndex(cs CrawlerSpec, m int) (int, bool) {
	if m < cs.FirstMonth || m > cs.LastMonth {
		return 0, false
	}
	d := m - cs.FirstMonth
	if d%cs.Cadence != 0 {
		return 0, false
	}
	k := d / cs.Cadence
	if cs.MaxVisits > 0 && k >= cs.MaxVisits {
		return 0, false
	}
	return k, true
}

// dueWave reports whether roster entry r crawls site i in month m — its
// SiteLimit keeps the site and waveIndex finds a wave — and which visit
// to the site that wave is.
func (w *tierWorld) dueWave(r, i, m int) (int, bool) {
	cs := &w.roster[r].spec
	if cs.SiteLimit > 0 && i >= cs.SiteLimit {
		return 0, false
	}
	return waveIndex(*cs, m)
}

// domainDigits is the digit width of site i's domain name. Scenario
// domains are fmt.Sprintf("site-%05d.scenario.test", i): the served "/"
// page embeds absolute self-links, so response byte counts depend on the
// domain's length and the wave cache keys on it.
func domainDigits(i int) uint16 {
	d := uint16(5)
	for i /= 100_000; i > 0; i /= 10 {
		d++
	}
	return d
}
