package robots

import "sort"

// ChangeKind classifies one agent's restriction change between two
// versions of a robots.txt file.
type ChangeKind int

const (
	// changeAdded: the agent is explicitly restricted in the new version only.
	changeAdded ChangeKind = iota
	// changeRemoved: the agent lost its explicit restriction (the §3.3
	// licensing-deal signature).
	changeRemoved
	// changeTightened: the restriction level rose (partial → full).
	changeTightened
	// changeLoosened: the restriction level fell (full → partial).
	changeLoosened
	// changeNowAllowed: the agent gained an explicit blanket Allow (§3.4).
	changeNowAllowed
)

// String names the change.
func (k ChangeKind) String() string {
	switch k {
	case changeAdded:
		return "restriction added"
	case changeRemoved:
		return "restriction removed"
	case changeTightened:
		return "restriction tightened"
	case changeLoosened:
		return "restriction loosened"
	case changeNowAllowed:
		return "explicitly allowed"
	default:
		return "unknown"
	}
}

// Change is one agent-level difference between two robots.txt versions.
type Change struct {
	// Agent is the product token affected (lowercased).
	Agent string
	Kind  ChangeKind
	// From and To are the explicit restriction levels before and after
	// (Unrestricted when the agent was not explicitly named).
	From, To Level
}

// Diff compares two parsed robots.txt files and reports per-agent
// explicit-restriction changes, sorted by agent. It considers every agent
// named in either version; wildcard-only changes are not agent changes.
//
// This is the primitive behind the paper's §3.3 removal analysis: a
// publisher striking a licensing deal shows up as Removed changes for the
// OpenAI tokens with the rest of the file untouched.
func Diff(before, after *Robots) []Change {
	levels := func(rb *Robots) map[string]Level {
		m := make(map[string]Level)
		for _, tok := range rb.AgentTokens() {
			if lvl, explicit := rb.ExplicitRestriction(tok); explicit {
				m[lower(tok)] = lvl
			} else {
				m[lower(tok)] = unrestricted
			}
		}
		return m
	}
	allowed := func(rb *Robots) map[string]bool {
		m := make(map[string]bool)
		for _, tok := range rb.AgentTokens() {
			if rb.ExplicitlyAllows(tok) {
				m[lower(tok)] = true
			}
		}
		return m
	}
	beforeLvl, afterLvl := levels(before), levels(after)
	beforeAllow, afterAllow := allowed(before), allowed(after)

	agentSet := make(map[string]bool, len(beforeLvl)+len(afterLvl))
	for a := range beforeLvl {
		agentSet[a] = true
	}
	for a := range afterLvl {
		agentSet[a] = true
	}

	var out []Change
	for agent := range agentSet {
		b, bOK := beforeLvl[agent]
		a, aOK := afterLvl[agent]
		if !bOK {
			b = unrestricted
		}
		if !aOK {
			a = unrestricted
		}
		switch {
		case !beforeAllow[agent] && afterAllow[agent]:
			out = append(out, Change{Agent: agent, Kind: changeNowAllowed, From: b, To: a})
		case !b.Restricted() && a.Restricted():
			out = append(out, Change{Agent: agent, Kind: changeAdded, From: b, To: a})
		case b.Restricted() && !a.Restricted():
			out = append(out, Change{Agent: agent, Kind: changeRemoved, From: b, To: a})
		case b == PartiallyDisallowed && a == FullyDisallowed:
			out = append(out, Change{Agent: agent, Kind: changeTightened, From: b, To: a})
		case b == FullyDisallowed && a == PartiallyDisallowed:
			out = append(out, Change{Agent: agent, Kind: changeLoosened, From: b, To: a})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Agent < out[j].Agent })
	return out
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
