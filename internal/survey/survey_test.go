package survey

import (
	"math"
	"testing"
)

func pop(t *testing.T) *Population {
	t.Helper()
	return Generate(17)
}

func TestPopulationSize(t *testing.T) {
	p := pop(t)
	if len(p.Respondents) != paperN {
		t.Fatalf("N = %d, want %d", len(p.Respondents), paperN)
	}
}

func TestTable5(t *testing.T) {
	p := pop(t)
	t5 := p.Table5()
	want := map[IncomeBucket]int{
		LessThan1Year: 17, OneToFiveYears: 68, FiveToTenYears: 44, TenPlusYears: 47,
	}
	total := 0
	for b, k := range want {
		if t5[b] != k {
			t.Errorf("%v = %d, want %d", b, t5[b], k)
		}
		total += t5[b]
	}
	if total != 176 {
		t.Errorf("Table 5 total = %d, want 176", total)
	}
}

func TestTable6(t *testing.T) {
	p := pop(t)
	t6 := p.Table6()
	want := map[string]int{
		"North America": 109, "Europe": 52, "Asia": 21,
		"South America": 18, "Africa": 2, "Oceania": 1,
	}
	for c, k := range want {
		if t6[c] != k {
			t.Errorf("%s = %d, want %d", c, t6[c], k)
		}
	}
	// Country detail: 89 US, 18 UK, 9 PH (§4.1, App. D.2).
	counts := map[string]int{}
	for _, r := range p.Respondents {
		counts[r.Country]++
	}
	if counts["United States"] != 89 {
		t.Errorf("US = %d, want 89", counts["United States"])
	}
	if counts["United Kingdom"] != 18 {
		t.Errorf("UK = %d, want 18", counts["United Kingdom"])
	}
	if counts["Philippines"] != 9 {
		t.Errorf("PH = %d, want 9", counts["Philippines"])
	}
}

func TestTable7(t *testing.T) {
	p := pop(t)
	rows := p.Table7()
	if len(rows) < 5 {
		t.Fatalf("art types = %d", len(rows))
	}
	want := []struct {
		name  string
		count int
	}{
		{"Illustration", 163},
		{"Digital 2D", 143},
		{"Character and Creature Design", 99},
		{"Traditional Painting and Drawing", 78},
		{"Concept Art", 68},
	}
	for i, w := range want {
		if rows[i].Key != w.name || rows[i].Count != w.count {
			t.Errorf("rank %d = %s/%d, want %s/%d",
				i+1, rows[i].Key, rows[i].Count, w.name, w.count)
		}
	}
	top5 := 0
	for i := 0; i < 5; i++ {
		top5 += rows[i].Count
	}
	if top5 != 551 {
		t.Errorf("top-5 total = %d, want 551", top5)
	}
}

func TestTable8(t *testing.T) {
	p := pop(t)
	t8 := p.Table8()
	want := map[Term]float64{
		termWebsite: 4.60, termSearchEngine: 4.35, termGenerativeAI: 3.89,
		termRobotsTxt: 1.99, termBogus: 1.56,
	}
	for term, mean := range want {
		if math.Abs(t8[term]-mean) > 0.01 {
			t.Errorf("%s mean = %.3f, want %.2f", term, t8[term], mean)
		}
	}
	// The digital-literacy check: the bogus item must rank lowest.
	for term, mean := range t8 {
		if term != termBogus && mean <= t8[termBogus] {
			t.Errorf("bogus item (%.2f) must rank below %s (%.2f)",
				t8[termBogus], term, mean)
		}
	}
}

func TestHeadline(t *testing.T) {
	p := pop(t)
	h := p.ComputeHeadline()
	checks := []struct {
		name      string
		got, want float64
		tol       float64
	}{
		{"professional %", h.ProfessionalPct, 67, 1},
		{"makes money %", h.MakesMoneyPct, 87, 1},
		{"never heard robots.txt %", h.NeverHeardRobotsPct, 59, 1},
		{"moderate+ impact %", h.ModerateImpactPlusPct, 79, 1.5},
		{"significant+ impact %", h.SignificantPlusPct, 54, 1.5},
		{"took action %", h.TookActionPct, 83, 1},
		{"glaze among actors %", h.GlazeAmongActorsPct, 71, 1},
		{"very likely block %", h.VeryLikelyBlockPct, 93, 2},
		{"want block %", h.WantBlockPct, 97, 1},
		{"distrust among new %", h.DistrustAmongNewPct, 77, 1.5},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %.1f, want %.0f±%.1f", c.name, c.got, c.want, c.tol)
		}
	}
	if h.UnderstoodAfterCount != 113 {
		t.Errorf("understood after = %d, want 113", h.UnderstoodAfterCount)
	}
	if h.AwareWithSite != 38 {
		t.Errorf("aware with site = %d, want 38", h.AwareWithSite)
	}
	if h.AwareSiteNotUsing != 27 {
		t.Errorf("aware not using = %d, want 27", h.AwareSiteNotUsing)
	}
	if h.AwareSiteNoControl != 9 {
		t.Errorf("no control = %d, want 9", h.AwareSiteNoControl)
	}
	if h.MultiPlatform != 5 {
		t.Errorf("multi-platform = %d, want 5", h.MultiPlatform)
	}
}

func TestAdoptionLikelihoodAmongNew(t *testing.T) {
	p := pop(t)
	var likelyPlus, total int
	for _, r := range p.Respondents {
		if r.HeardRobots {
			continue
		}
		total++
		if r.AdoptLikelihood >= likertLikely {
			likelyPlus++
		}
	}
	if total != 119 {
		t.Fatalf("not-heard population = %d, want 119", total)
	}
	pct := 100 * float64(likelyPlus) / float64(total)
	if math.Abs(pct-75) > 1.5 {
		t.Errorf("likely-to-adopt among new = %.1f%%, want ≈75%%", pct)
	}
}

func TestThemeCounts(t *testing.T) {
	p := pop(t)
	for _, q := range Questions() {
		entries := p.ThemeCounts(q)
		if len(entries) == 0 {
			t.Errorf("question %s has no themes", q)
			continue
		}
		valid := map[string]bool{}
		for _, th := range codebook[q] {
			valid[th] = true
		}
		for _, e := range entries {
			if !valid[e.Key] {
				t.Errorf("%s: theme %q not in codebook", q, e.Key)
			}
		}
	}
	// Distrust themes exist for the 92 distrusting respondents.
	distrust := p.ThemeCounts(QWhyDistrust)
	var total int
	for _, e := range distrust {
		total += e.Count
	}
	if total != 92 {
		t.Errorf("distrust theme assignments = %d, want 92", total)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(99)
	b := Generate(99)
	for i := range a.Respondents {
		ra, rb := a.Respondents[i], b.Respondents[i]
		if ra.Country != rb.Country || ra.HeardRobots != rb.HeardRobots ||
			ra.JobImpact != rb.JobImpact || len(ra.ArtTypes) != len(rb.ArtTypes) {
			t.Fatalf("respondent %d differs across identical seeds", i)
		}
	}
}

func TestSeedChangesJointAssignment(t *testing.T) {
	a := Generate(1)
	b := Generate(2)
	same := 0
	for i := range a.Respondents {
		if a.Respondents[i].Country == b.Respondents[i].Country {
			same++
		}
	}
	if same == len(a.Respondents) {
		t.Fatal("different seeds must shuffle attribute assignment")
	}
	// But the marginals stay exact.
	if a.Table6()["Europe"] != 52 || b.Table6()["Europe"] != 52 {
		t.Fatal("marginals must be seed-independent")
	}
}

func TestEveryRespondentHasFamiliarity(t *testing.T) {
	p := pop(t)
	for _, r := range p.Respondents {
		for _, term := range Terms {
			v, ok := r.Familiarity[term]
			if !ok || v < 1 || v > 5 {
				t.Fatalf("respondent %d: familiarity[%s] = %d, ok=%v", r.ID, term, v, ok)
			}
		}
	}
}

func TestIncomeBucketStrings(t *testing.T) {
	if LessThan1Year.String() == "" || noIncome.String() == "" {
		t.Fatal("bucket strings must be non-empty")
	}
	if OneToFiveYears.String() != "1-5 years" {
		t.Fatalf("bucket = %q", OneToFiveYears.String())
	}
}

func TestRobotsUsersSubset(t *testing.T) {
	p := pop(t)
	for _, r := range p.Respondents {
		if r.UsesRobotsNow && (!r.HasPersonalSite || !r.HeardRobots) {
			t.Fatal("robots.txt users must be aware site owners")
		}
		if r.NoRobotsControl && r.UsesRobotsNow {
			t.Fatal("no-control respondents cannot be users")
		}
	}
}

func TestExampleQuotes(t *testing.T) {
	// Every codebook theme has a representative quote from the paper.
	for q, themes := range codebook {
		for _, theme := range themes {
			if ExampleQuote(q, theme) == "" {
				t.Errorf("%s/%s: missing example quote", q, theme)
			}
		}
	}
	if ExampleQuote("nope", "nope") != "" {
		t.Error("unknown question must return empty")
	}
}
