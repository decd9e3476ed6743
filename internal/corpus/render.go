package corpus

import (
	"sort"

	"repro/internal/robots"
)

// siteState is a site's effective AI-crawler policy at one snapshot,
// produced by folding the event timeline.
type siteState struct {
	// Full maps agent tokens that are explicitly fully disallowed.
	Full map[string]bool
	// Partial maps agents with an explicit partial restriction.
	Partial map[string]bool
	// Allowed maps agents with an explicit "Allow: /" invitation.
	Allowed map[string]bool
}

// restricted reports whether any agent is explicitly restricted.
func (st siteState) restricted() bool { return len(st.Full)+len(st.Partial) > 0 }

// newSiteState returns the state before any event: nothing restricted.
func newSiteState() siteState {
	return siteState{
		Full:    make(map[string]bool),
		Partial: make(map[string]bool),
		Allowed: make(map[string]bool),
	}
}

// apply folds one event into st.
func (st *siteState) apply(e Event) {
	switch e.Kind {
	case eventAddRestriction:
		for _, a := range e.Agents {
			delete(st.Allowed, a)
			if e.Full {
				delete(st.Partial, a)
				st.Full[a] = true
			} else if !st.Full[a] {
				st.Partial[a] = true
			}
		}
	case eventRemoveRestriction:
		if len(e.Agents) == 0 {
			st.Full = make(map[string]bool)
			st.Partial = make(map[string]bool)
		} else {
			for _, a := range e.Agents {
				delete(st.Full, a)
				delete(st.Partial, a)
			}
		}
	case eventExplicitAllow:
		for _, a := range e.Agents {
			delete(st.Full, a)
			delete(st.Partial, a)
			st.Allowed[a] = true
		}
	}
}

// stateAt folds the site's events up to and including snapshot k.
func (c *Corpus) stateAt(s *Site, k int) siteState {
	st := newSiteState()
	for _, e := range s.Events {
		if e.Snap > k {
			break
		}
		st.apply(e)
	}
	return st
}

// RobotsBody renders the robots.txt the site serves at snapshot k. The
// longitudinal analysis parses these bodies back with internal/robots;
// generation and measurement only meet at the rendered text.
func (c *Corpus) RobotsBody(s *Site, k int) string {
	return render(s, c.stateAt(s, k))
}

// RobotsBodies returns the robots.txt the site serves at every snapshot,
// indexed as Snapshots: RobotsBodies(s)[k] == RobotsBody(s, k). It folds
// the timeline once and renders only at snapshot 0 and at a snapshot an
// event lands on; every other snapshot shares the string before it.
func (c *Corpus) RobotsBodies(s *Site) []string {
	bodies := make([]string, len(Snapshots))
	st := newSiteState()
	next := 0
	for k := range bodies {
		changed := k == 0
		for ; next < len(s.Events) && s.Events[next].Snap <= k; next++ {
			st.apply(s.Events[next])
			changed = true
		}
		if changed {
			bodies[k] = render(s, st)
		} else {
			bodies[k] = bodies[k-1]
		}
	}
	return bodies
}

// render writes the robots.txt of site s in state st.
func render(s *Site, st siteState) string {
	b := robots.NewBuilder()
	b.Comment("robots.txt for " + s.Domain)

	if s.wildcardFull {
		b.Group("*").DisallowAll()
	} else {
		g := b.Group("*")
		switch s.genericGroups {
		case 0:
			g.Disallow("/admin/")
		case 1:
			g.Disallow("/admin/", "/search")
		default:
			g.Disallow("/admin/", "/cgi-bin/", "/tmp/")
		}
		if s.hasCrawlDelay {
			// The deprecated Crawl-Delay extension some sites still carry;
			// compliant parsers record and ignore it (App. B.2 case 3).
			g.CrawlDelay("10")
		}
		if s.hasMistake {
			// The two canonical authoring mistakes from §8.1: a relative
			// path and a non-existent directive.
			g.Disallow("images/private")
			b.Raw("Noai: true")
		}
	}

	if full := sortedKeys(st.Full); len(full) > 0 {
		b.Group(full...).DisallowAll()
	}
	for _, a := range sortedKeys(st.Partial) {
		b.Group(a).Disallow("/images/", "/gallery/")
	}
	if allowed := sortedKeys(st.Allowed); len(allowed) > 0 {
		b.Group(allowed...).AllowAll()
	}

	if s.hasSitemap {
		b.Blank()
		b.Sitemap("https://" + s.Domain + "/sitemap.xml")
	}
	return b.String()
}

func sortedKeys(m map[string]bool) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
