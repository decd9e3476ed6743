package main

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/agents"
	"repro/internal/policyd"
	"repro/internal/stats"
)

// rosterAgents are on every snapshot's precompiled roster, so their
// queries take Decide's allocation-free path.
var rosterAgents = []string{"GPTBot", "ClaudeBot", "CCBot", "Bytespider", "Googlebot"}

var queryPaths = []string{
	"/", "/about.html", "/admin/panel", "/images/art.png",
	"/gallery/2024/piece.jpg", "/blog/post?id=7", "/search?q=x",
}

// cycleSpec is the traffic mix of one query cycle.
type cycleSpec struct {
	n int
	// zipf is the host popularity skew; 0 draws hosts uniformly, which
	// makes the working set the whole snapshot.
	zipf float64
	// nonRosterShare of queries carry a full User-Agent header from
	// outside the roster, which takes Decide's slow path.
	nonRosterShare float64
	// unknownHostShare of queries name a host no snapshot holds.
	unknownHostShare float64
}

// buildQueries generates the query cycle from the seed alone; the
// program under test only ever sees these queries.
func buildQueries(seed int64, hosts []string, spec cycleSpec) []policyd.Query {
	rn := stats.NewRand(seed).Fork("bench-queries")
	cum := make([]float64, len(hosts))
	sum := 0.0
	for i := range hosts {
		w := 1.0
		if spec.zipf > 0 {
			w = 1 / math.Pow(float64(i+1), spec.zipf)
		}
		sum += w
		cum[i] = sum
	}
	nonRoster := agents.GenericCrawlerUserAgents(16)
	qs := make([]policyd.Query, spec.n)
	for i := range qs {
		var host string
		if rn.Float64() < spec.unknownHostShare {
			host = fmt.Sprintf("unknown-%d.invalid", rn.Intn(1<<20))
		} else {
			h := sort.SearchFloat64s(cum, rn.Float64()*sum)
			if h >= len(hosts) {
				h = len(hosts) - 1
			}
			host = hosts[h]
		}
		agent := rosterAgents[rn.Intn(len(rosterAgents))]
		if rn.Float64() < spec.nonRosterShare {
			agent = nonRoster[rn.Intn(len(nonRoster))]
		}
		qs[i] = policyd.Query{Host: host, Agent: agent, Path: queryPaths[rn.Intn(len(queryPaths))]}
	}
	return qs
}

// cycle is a query cycle plus, per snapshot version, the decision
// Snapshot.Decide gives for every query: what a response that names
// that version must contain.
type cycle struct {
	queries  []policyd.Query
	expected map[string][]policyd.Decision
}

func newCycle(queries []policyd.Query, snaps ...*policyd.Snapshot) *cycle {
	c := &cycle{queries: queries, expected: make(map[string][]policyd.Decision)}
	for _, sn := range snaps {
		exp := make([]policyd.Decision, len(queries))
		for i, q := range queries {
			exp[i] = sn.Decide(q)
		}
		c.expected[sn.Version] = exp
	}
	return c
}

// check reports whether got is what the snapshot named version decides
// for the queries starting at off. An unknown version is wrong.
func (c *cycle) check(version string, off int, got []policyd.Decision) bool {
	exp, ok := c.expected[version]
	if !ok || off+len(got) > len(exp) {
		return false
	}
	for i, d := range got {
		if d != exp[off+i] {
			return false
		}
	}
	return true
}
