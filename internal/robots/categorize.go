package robots

import "repro/internal/useragent"

// Level is the paper's four-way classification of how a robots.txt file
// restricts a given crawler (§2.2).
type Level int

const (
	// noRobotsFile means the site serves no robots.txt. The parser never
	// produces this level itself; callers that know a fetch failed use it.
	noRobotsFile Level = iota
	// unrestricted means the crawler may access every path.
	unrestricted
	// PartiallyDisallowed means some but not all paths are blocked.
	PartiallyDisallowed
	// FullyDisallowed means the crawler may access no path at all.
	FullyDisallowed
)

// String returns the paper's wording for the level.
func (l Level) String() string {
	switch l {
	case noRobotsFile:
		return "no robots.txt"
	case unrestricted:
		return "no restrictions"
	case PartiallyDisallowed:
		return "partially disallowed"
	case FullyDisallowed:
		return "fully disallowed"
	default:
		return "unknown"
	}
}

// Restricted reports whether the level blocks at least one path.
func (l Level) Restricted() bool {
	return l == PartiallyDisallowed || l == FullyDisallowed
}

// probePaths is a small representative set used to confirm full
// disallowance beyond the root path check.
var probePaths = []string{
	"/", "/index.html", "/about", "/images/art.png", "/blog/2024/post?id=1",
}

// Restriction classifies how this robots.txt restricts the crawler ua,
// considering wildcard groups as well as explicit ones.
//
// The classification follows the paper's wrapper around Google's parser:
// a crawler is fully disallowed when the effective rules deny every path;
// partially disallowed when at least one non-empty Disallow pattern exists
// but some path remains reachable; unrestricted otherwise.
func (rb *Robots) Restriction(ua string) Level {
	return classify(rb.Agent(ua))
}

// ExplicitRestriction classifies the restriction imposed on ua only by
// groups that explicitly name its product token. The boolean reports
// whether such a group exists; when it is false the level is Unrestricted.
//
// The paper's longitudinal analysis (§3.1) counts a site as disallowing an
// AI crawler only under this explicit notion, so that sites with a blanket
// "User-agent: *; Disallow: /" are not counted as expressing AI-specific
// intent.
func (rb *Robots) ExplicitRestriction(ua string) (Level, bool) {
	acc := rb.Agent(ua)
	if !acc.Explicit {
		return unrestricted, false
	}
	return classify(acc), true
}

func classify(acc *Access) Level {
	if !acc.HasRules() {
		return unrestricted
	}
	hasDisallow := false
	hasUsableAllow := false
	for _, r := range acc.rules {
		if r.Path == "" {
			continue
		}
		if r.Allow {
			hasUsableAllow = true
		} else {
			hasDisallow = true
		}
	}
	if !hasDisallow {
		return unrestricted
	}
	if !hasUsableAllow {
		rootDenied := !acc.Allowed("/")
		if rootDenied {
			allDenied := true
			for _, p := range probePaths {
				if acc.Allowed(p) {
					allDenied = false
					break
				}
			}
			if allDenied {
				return FullyDisallowed
			}
		}
		return PartiallyDisallowed
	}
	// Allow rules exist: some path may be reachable. Verify with probes —
	// if even the probes are all denied we still call it partial, since an
	// allow rule expresses intent to leave something open.
	return PartiallyDisallowed
}

// ExplicitlyAllows reports whether the robots.txt contains a group that
// names ua's product token and allows it everything (an explicit
// invitation such as "User-agent: GPTBot / Allow: /" — §3.4 of the paper).
func (rb *Robots) ExplicitlyAllows(ua string) bool {
	token := useragent.ExtractToken(ua)
	for _, g := range rb.Groups {
		named := false
		for _, a := range g.Agents {
			if useragent.EqualToken(useragent.ExtractToken(a), token) {
				named = true
				break
			}
		}
		if !named {
			continue
		}
		for _, r := range g.Rules {
			if r.Allow && (r.Path == "/" || r.Path == "/*" || r.Path == "*") {
				// The allow must not be negated by a disallow in scope.
				if acc := rb.Agent(token); acc.Allowed("/") {
					return true
				}
			}
		}
	}
	return false
}

// WildcardFullDisallow reports whether the file blocks all crawlers via a
// catch-all group ("User-agent: *; Disallow: /"). The paper excludes such
// sites (<2% of the Stable Top 100k) from AI-specific intent counts.
func (rb *Robots) WildcardFullDisallow() bool {
	for _, g := range rb.Groups {
		wild := false
		for _, a := range g.Agents {
			if useragent.IsWildcard(a) {
				wild = true
				break
			}
		}
		if !wild {
			continue
		}
		for _, r := range g.Rules {
			if !r.Allow && (r.Path == "/" || r.Path == "/*") {
				return true
			}
		}
	}
	return false
}
