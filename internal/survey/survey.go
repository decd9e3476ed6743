// Package survey models the paper's §4 user study: a 203-artist
// population whose joint attribute distribution reproduces every
// statistic the paper reports — the demographic tables (Tables 5–8
// including the bogus-item digital-literacy check), the §4.2 sentiment
// findings, the §4.3 awareness/ability/agency gaps, and the codebook
// theme frequencies of Tables 9–12.
//
// The population is constructed, not sampled: category sizes are
// allocated exactly and then assigned to shuffled respondents, so every
// tabulation is reproducible and matches the paper's counts precisely.
package survey

import (
	"sort"

	"repro/internal/stats"
)

// paperN is the number of valid survey responses (§4.1).
const paperN = 203

// Likert is a 1–5 scale response.
type Likert int

// Likert anchors.
const (
	likertNotAtAll Likert = 1 + iota
	likertUnlikely
	likertNeutral
	likertLikely
	likertVeryLikely
)

// Impact is the Q16 job-security impact scale.
type Impact int

// Impact levels.
const (
	impactNone Impact = iota
	impactMinor
	impactModerate
	impactSignificant
	impactSevere
)

// IncomeBucket is Table 5's "how long making money" scale.
type IncomeBucket int

// Income duration buckets.
const (
	noIncome IncomeBucket = iota
	LessThan1Year
	OneToFiveYears
	FiveToTenYears
	TenPlusYears
)

// String renders the bucket as in Table 5.
func (b IncomeBucket) String() string {
	switch b {
	case LessThan1Year:
		return "Less than 1 year"
	case OneToFiveYears:
		return "1-5 years"
	case FiveToTenYears:
		return "5-10 years"
	case TenPlusYears:
		return "10 years or more"
	default:
		return "no income from art"
	}
}

// Term is a Q6 familiarity item.
type Term string

// The five Q6 items, including the bogus control item from Hargittai [41].
const (
	termWebsite      Term = "Website"
	termSearchEngine Term = "Search engine"
	termGenerativeAI Term = "Generative AI"
	termRobotsTxt    Term = "Robots.txt"
	termBogus        Term = "Nearest diffusion tree" // does not exist
)

// Terms lists the familiarity items in Table 8 order.
var Terms = []Term{termWebsite, termSearchEngine, termGenerativeAI, termRobotsTxt, termBogus}

// Respondent is one artist's joint response.
type Respondent struct {
	ID           int
	Professional bool
	MakesMoney   bool
	Income       IncomeBucket
	Continent    string
	Country      string
	ArtTypes     []string
	Familiarity  map[Term]Likert

	HasPersonalSite bool
	HeardRobots     bool
	// UnderstandsRobots: basic understanding (before the study for those
	// who had heard of it, after the explanation for those who had not).
	UnderstandsRobots bool

	JobImpact  Impact
	TookAction bool
	UsesGlaze  bool

	// BlockLikelihood is Q23 (provider-offered blocking mechanism).
	BlockLikelihood Likert
	// AdoptLikelihood is Q26 (adopt robots.txt in the future); only asked
	// of those who had not heard of robots.txt.
	AdoptLikelihood Likert
	// TrustAI is Q27: how likely AI companies are to respect robots.txt.
	TrustAI Likert

	// UsesRobotsNow: currently uses robots.txt to disallow AI crawlers.
	UsesRobotsNow bool
	// NoRobotsControl: reports having no control over robots.txt content.
	NoRobotsControl bool
	// MultiPlatformIssue: notes that posting on many platforms limits
	// what a personal-site robots.txt can protect.
	MultiPlatformIssue bool

	// Themes maps codebook questions to assigned open-answer themes.
	Themes map[string][]string
}

// Codebook questions (Tables 9–12).
const (
	QOtherActions = "other-actions" // Table 9
	QWhyNotAdopt  = "why-not-adopt" // Table 10
	QWhyBlock     = "why-block"     // Table 11
	QWhyDistrust  = "why-distrust"  // Table 12
)

// codebook themes per question, in table order.
var codebook = map[string][]string{
	QOtherActions: {"modify post", "switch platforms", "raise awareness",
		"unionize", "change career path", "miscellaneous"},
	QWhyNotAdopt: {"efficacy", "usability", "more information",
		"no personal website", "search results"},
	QWhyBlock: {"protection", "consent", "compensation",
		"useful mechanism", "legal benefit", "misc"},
	QWhyDistrust: {"track record", "profit", "perception", "loophole",
		"legal enforcement", "voluntary nature", "misc"},
}

// Population is the generated respondent set.
type Population struct {
	Respondents []Respondent
}

// Anchor counts from the paper.
const (
	countProfessional  = 136 // 67%
	countMakesMoney    = 176 // Table 5 total
	countHeardRobots   = 84  // 41%; 119 had not
	countGlazeUsers    = 120 // 71% of the 169 action-takers
	countTookAction    = 169 // 83%
	countAwareWithSite = 38  // §4.3: aware of robots.txt + personal site
	countNotUtilized   = 27  // of the 38, have not used robots.txt
	countNoControl     = 9   // of the 38, report no control
	countMultiPlatform = 5   // of the 38, note the multi-platform limit
)

// Generate builds the 203-artist population.
func Generate(seed int64) *Population {
	rn := stats.NewRand(seed).Fork("survey")
	n := paperN
	rs := make([]Respondent, n)
	for i := range rs {
		rs[i] = Respondent{
			ID:          i + 1,
			Familiarity: make(map[Term]Likert),
			Themes:      make(map[string][]string),
		}
	}

	assign := func(count int, f func(r *Respondent)) {
		idx := rn.SampleWithoutReplacement(n, count)
		for _, i := range idx {
			f(&rs[i])
		}
	}

	assign(countProfessional, func(r *Respondent) { r.Professional = true })

	// Table 5: income duration buckets (17/68/44/47 of the 176 earners).
	{
		idx := rn.SampleWithoutReplacement(n, countMakesMoney)
		buckets := []struct {
			b IncomeBucket
			k int
		}{
			{LessThan1Year, 17}, {OneToFiveYears, 68},
			{FiveToTenYears, 44}, {TenPlusYears, 47},
		}
		pos := 0
		for _, bk := range buckets {
			for j := 0; j < bk.k; j++ {
				r := &rs[idx[pos]]
				r.MakesMoney = true
				r.Income = bk.b
				pos++
			}
		}
	}

	// Table 6: continents with the country detail the paper gives.
	{
		perm := rn.Perm(n)
		type geo struct {
			continent string
			countries []string
			counts    []int
			total     int
		}
		geos := []geo{
			{"North America", []string{"United States", "Canada", "Mexico"}, []int{89, 15, 5}, 109},
			{"Europe", []string{"United Kingdom", "Poland", "Germany", "France", "Spain", "Italy"}, []int{18, 5, 5, 9, 8, 7}, 52},
			{"Asia", []string{"Philippines", "Japan", "India", "China"}, []int{9, 4, 4, 4}, 21},
			{"South America", []string{"Brazil", "Argentina"}, []int{12, 6}, 18},
			{"Africa", []string{"South Africa"}, []int{2}, 2},
			{"Oceania", []string{"Australia"}, []int{1}, 1},
		}
		pos := 0
		for _, g := range geos {
			ci := 0
			remainingInCountry := g.counts[0]
			for j := 0; j < g.total; j++ {
				for remainingInCountry == 0 && ci < len(g.countries)-1 {
					ci++
					remainingInCountry = g.counts[ci]
				}
				r := &rs[perm[pos]]
				r.Continent = g.continent
				r.Country = g.countries[ci]
				remainingInCountry--
				pos++
			}
		}
	}

	// Table 7: multi-select art types with the paper's top-five counts.
	for _, at := range []struct {
		name  string
		count int
	}{
		{"Illustration", 163},
		{"Digital 2D", 143},
		{"Character and Creature Design", 99},
		{"Traditional Painting and Drawing", 78},
		{"Concept Art", 68},
		{"Digital 3D", 41},
		{"Anime and Manga Art", 37},
		{"Comicbook Art", 22},
	} {
		name := at.name
		assign(at.count, func(r *Respondent) { r.ArtTypes = append(r.ArtTypes, name) })
	}

	// Table 8: familiarity means via exact two-point allocations.
	for _, tm := range []struct {
		term Term
		mean float64
	}{
		{termWebsite, 4.60}, {termSearchEngine, 4.35}, {termGenerativeAI, 3.89},
		{termRobotsTxt, 1.99}, {termBogus, 1.56},
	} {
		base := Likert(int(tm.mean))
		frac := tm.mean - float64(int(tm.mean))
		high := int(frac*float64(n) + 0.5)
		idx := rn.Perm(n)
		for j, i := range idx {
			if j < high {
				rs[i].Familiarity[tm.term] = base + 1
			} else {
				rs[i].Familiarity[tm.term] = base
			}
		}
	}

	// Q16 job impact: 55 severe + 55 significant (54%), 51 moderate
	// (cumulative 79%), 30 minor, 12 none.
	{
		perm := rn.Perm(n)
		levels := []struct {
			lvl Impact
			k   int
		}{
			{impactSevere, 55}, {impactSignificant, 55}, {impactModerate, 51},
			{impactMinor, 30}, {impactNone, 12},
		}
		pos := 0
		for _, lv := range levels {
			for j := 0; j < lv.k; j++ {
				rs[perm[pos]].JobImpact = lv.lvl
				pos++
			}
		}
	}

	// Actions: 169 took action; 120 of them use Glaze (71%).
	{
		idx := rn.SampleWithoutReplacement(n, countTookAction)
		for j, i := range idx {
			rs[i].TookAction = true
			if j < countGlazeUsers {
				rs[i].UsesGlaze = true
			}
			// Table 9 themes for the "other actions" question.
			theme := codebook[QOtherActions][rn.WeightedIndex([]float64{30, 25, 15, 8, 4, 18})]
			rs[i].Themes[QOtherActions] = append(rs[i].Themes[QOtherActions], theme)
		}
	}

	// Q23: provider-offered blocking. 185 very likely (93%), 12 likely
	// (97% cumulative), 4 neutral, 2 unlikely.
	{
		perm := rn.Perm(n)
		levels := []struct {
			lvl Likert
			k   int
		}{
			{likertVeryLikely, 185}, {likertLikely, 12}, {likertNeutral, 4}, {likertUnlikely, 2},
		}
		pos := 0
		for _, lv := range levels {
			for j := 0; j < lv.k; j++ {
				r := &rs[perm[pos]]
				r.BlockLikelihood = lv.lvl
				if lv.lvl >= likertLikely {
					theme := codebook[QWhyBlock][rn.WeightedIndex([]float64{35, 25, 15, 10, 5, 10})]
					r.Themes[QWhyBlock] = append(r.Themes[QWhyBlock], theme)
				} else {
					rs[perm[pos]].Themes[QWhyNotAdopt] = append(rs[perm[pos]].Themes[QWhyNotAdopt],
						codebook[QWhyNotAdopt][rn.WeightedIndex([]float64{40, 25, 20, 10, 5})])
				}
				pos++
			}
		}
	}

	// robots.txt awareness: 84 heard (90% of them understand), 119 not
	// (113 understand after the explanation).
	{
		idx := rn.SampleWithoutReplacement(n, countHeardRobots)
		heardSet := make(map[int]bool, len(idx))
		for j, i := range idx {
			rs[i].HeardRobots = true
			heardSet[i] = true
			rs[i].UnderstandsRobots = j < 76 // 90% of 84
		}
		var notHeard []int
		for i := range rs {
			if !heardSet[i] {
				notHeard = append(notHeard, i)
			}
		}
		// 113 of 119 gain understanding; 75% (89) likely/very likely to
		// adopt; 77% (92) distrust AI companies.
		for j, i := range notHeard {
			rs[i].UnderstandsRobots = j < 113
			switch {
			case j < 50:
				rs[i].AdoptLikelihood = likertVeryLikely
			case j < 89:
				rs[i].AdoptLikelihood = likertLikely
			case j < 104:
				rs[i].AdoptLikelihood = likertNeutral
			default:
				rs[i].AdoptLikelihood = likertUnlikely
				rs[i].Themes[QWhyNotAdopt] = append(rs[i].Themes[QWhyNotAdopt],
					codebook[QWhyNotAdopt][rn.WeightedIndex([]float64{40, 25, 20, 10, 5})])
			}
		}
		sh := rn.Fork("distrust")
		sh.Shuffle(len(notHeard), func(a, b int) { notHeard[a], notHeard[b] = notHeard[b], notHeard[a] })
		for j, i := range notHeard {
			if j < 92 {
				if sh.Bool(0.5) {
					rs[i].TrustAI = likertUnlikely
				} else {
					rs[i].TrustAI = likertNotAtAll
				}
				rs[i].Themes[QWhyDistrust] = append(rs[i].Themes[QWhyDistrust],
					codebook[QWhyDistrust][sh.WeightedIndex([]float64{30, 20, 15, 10, 10, 10, 5})])
			} else {
				rs[i].TrustAI = likertNeutral
			}
		}
	}

	// §4.3 agency: 38 aware-with-personal-site; 27 of them never used
	// robots.txt; 9 report no control; 5 note the multi-platform limit.
	{
		var heard []int
		for i := range rs {
			if rs[i].HeardRobots {
				heard = append(heard, i)
			}
		}
		sh := rn.Fork("sites")
		sh.Shuffle(len(heard), func(a, b int) { heard[a], heard[b] = heard[b], heard[a] })
		for j := 0; j < countAwareWithSite; j++ {
			r := &rs[heard[j]]
			r.HasPersonalSite = true
			switch {
			case j < countAwareWithSite-countNotUtilized:
				r.UsesRobotsNow = true // 11 of 38 actually use it
			case j < countAwareWithSite-countNotUtilized+countNoControl:
				r.NoRobotsControl = true
			}
			if j >= countAwareWithSite-countMultiPlatform {
				r.MultiPlatformIssue = true
			}
		}
		// Some not-heard artists also run personal sites.
		extra := 0
		for i := range rs {
			if !rs[i].HeardRobots && extra < 60 && sh.Bool(0.55) {
				rs[i].HasPersonalSite = true
				extra++
			}
		}
	}
	return &Population{Respondents: rs}
}

// Table5 tabulates income duration (Table 5).
func (p *Population) Table5() map[IncomeBucket]int {
	out := make(map[IncomeBucket]int)
	for _, r := range p.Respondents {
		if r.MakesMoney {
			out[r.Income]++
		}
	}
	return out
}

// Table6 tabulates continent of residence (Table 6).
func (p *Population) Table6() map[string]int {
	out := make(map[string]int)
	for _, r := range p.Respondents {
		out[r.Continent]++
	}
	return out
}

// Table7 returns art-type counts sorted descending (Table 7).
func (p *Population) Table7() []stats.Entry {
	c := stats.NewCounter()
	for _, r := range p.Respondents {
		for _, at := range r.ArtTypes {
			c.Inc(at)
		}
	}
	return c.Sorted()
}

// Table8 returns mean familiarity per term (Table 8).
func (p *Population) Table8() map[Term]float64 {
	sums := make(map[Term]int)
	for _, r := range p.Respondents {
		for term, v := range r.Familiarity {
			sums[term] += int(v)
		}
	}
	out := make(map[Term]float64, len(sums))
	for term, s := range sums {
		out[term] = float64(s) / float64(len(p.Respondents))
	}
	return out
}

// Headline bundles §4.2–4.3's headline statistics.
type Headline struct {
	N                     int
	ProfessionalPct       float64
	MakesMoneyPct         float64
	NeverHeardRobotsPct   float64 // 59%
	UnderstoodAfterCount  int     // 113 of 119
	ModerateImpactPlusPct float64 // ≥79%
	SignificantPlusPct    float64 // ≥54%
	TookActionPct         float64 // 83%
	GlazeAmongActorsPct   float64 // 71%
	VeryLikelyBlockPct    float64 // 93%
	WantBlockPct          float64 // 97% (likely or very likely)
	DistrustAmongNewPct   float64 // 77%
	AwareWithSite         int     // 38
	AwareSiteNotUsing     int     // 27
	AwareSiteNoControl    int     // 9
	MultiPlatform         int     // 5
}

// ComputeHeadline tabulates the headline statistics.
func (p *Population) ComputeHeadline() Headline {
	n := len(p.Respondents)
	h := Headline{N: n}
	var prof, money, notHeard, understoodAfter, modPlus, sigPlus int
	var action, glaze, veryLikely, wantBlock, newDistrust, newTotal int
	for _, r := range p.Respondents {
		if r.Professional {
			prof++
		}
		if r.MakesMoney {
			money++
		}
		if !r.HeardRobots {
			notHeard++
			newTotal++
			if r.UnderstandsRobots {
				understoodAfter++
			}
			if r.TrustAI <= likertUnlikely && r.TrustAI != 0 {
				newDistrust++
			}
		}
		if r.JobImpact >= impactModerate {
			modPlus++
		}
		if r.JobImpact >= impactSignificant {
			sigPlus++
		}
		if r.TookAction {
			action++
			if r.UsesGlaze {
				glaze++
			}
		}
		if r.BlockLikelihood == likertVeryLikely {
			veryLikely++
		}
		if r.BlockLikelihood >= likertLikely {
			wantBlock++
		}
		if r.HasPersonalSite && r.HeardRobots {
			h.AwareWithSite++
			if !r.UsesRobotsNow {
				h.AwareSiteNotUsing++
			}
			if r.NoRobotsControl {
				h.AwareSiteNoControl++
			}
			if r.MultiPlatformIssue {
				h.MultiPlatform++
			}
		}
	}
	h.ProfessionalPct = stats.Percent(prof, n)
	h.MakesMoneyPct = stats.Percent(money, n)
	h.NeverHeardRobotsPct = stats.Percent(notHeard, n)
	h.UnderstoodAfterCount = understoodAfter
	h.ModerateImpactPlusPct = stats.Percent(modPlus, n)
	h.SignificantPlusPct = stats.Percent(sigPlus, n)
	h.TookActionPct = stats.Percent(action, n)
	h.GlazeAmongActorsPct = stats.Percent(glaze, action)
	h.VeryLikelyBlockPct = stats.Percent(veryLikely, n)
	h.WantBlockPct = stats.Percent(wantBlock, n)
	h.DistrustAmongNewPct = stats.Percent(newDistrust, newTotal)
	return h
}

// ThemeCounts tabulates codebook theme frequencies for a question
// (Tables 9–12).
func (p *Population) ThemeCounts(question string) []stats.Entry {
	c := stats.NewCounter()
	for _, r := range p.Respondents {
		for _, th := range r.Themes[question] {
			c.Inc(th)
		}
	}
	return c.Sorted()
}

// Questions returns the codebook question keys, sorted.
func Questions() []string {
	out := make([]string, 0, len(codebook))
	for q := range codebook {
		out = append(out, q)
	}
	sort.Strings(out)
	return out
}

// exampleQuotes carries the representative open-answer quote the paper's
// codebook gives for each theme (Tables 9–12).
var exampleQuotes = map[string]map[string]string{
	QOtherActions: {
		"modify post":        "Overlaying watermarks or art filters to modify the artwork",
		"switch platforms":   "Use Cara instead of Instagram",
		"raise awareness":    "Spreading awareness about the damage AI-generated art does",
		"unionize":           "Connecting with groups of professional artists being impacted to search for collective solutions for our field",
		"change career path": "I left school and am taking a gap year to reevaluate my life",
		"miscellaneous":      "Using block lists to block AI art accounts",
	},
	QWhyNotAdopt: {
		"efficacy":            "if the companies can ignore it why would they respect it considering what they already do",
		"usability":           "It sounds like something difficult to use",
		"more information":    "Not informed enough about it",
		"no personal website": "I do not have a personal website",
		"search results":      "If it hides things from *search engines* then how will people find my work?",
	},
	QWhyBlock: {
		"protection":       "To protect my original concepts and visual brand (aka original character designs and artstyle)",
		"consent":          "I havent given AI companies permission to use my work",
		"compensation":     "I do not want other companies to profit off of it without my knowledge, permission, or without fair compensation towards the source",
		"useful mechanism": "Adds a sense of security and ease of use",
		"legal benefit":    "it is a measure to reinforce a statement that we do not condone with these practices and will probably benefit in a possible lawsuit in the future",
		"misc":             "At this point if the option is presented I'll do my research on it and if it seems legitimate I'll do it on principle",
	},
	QWhyDistrust: {
		"track record":      "Based on the attitudes I have seen from AI companies and the way AI companies have already used data without consent, I'm unsure if they will respect robot.txt",
		"profit":            "Money before morals",
		"perception":        "AI companies are morally bankrupt",
		"loophole":          "They might start loopholes to get around it or something",
		"legal enforcement": "They have to be forced to respect it by law, we can't trust their good faith",
		"voluntary nature":  "At best it seems that robot.txt is just a warning sign, and will not entirely stop AI companies from deciding to scrape any particular content",
		"misc":              "I think, unfortunately, a lot of companies will not respect and will do it anyway",
	},
}

// ExampleQuote returns the codebook's representative quote for a theme,
// or "" when the codebook has none.
func ExampleQuote(question, theme string) string {
	return exampleQuotes[question][theme]
}
