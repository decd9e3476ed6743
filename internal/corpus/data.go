package corpus

import "time"

// Snapshot describes one Common-Crawl-style corpus snapshot (Table 3).
type Snapshot struct {
	// ID is the snapshot identifier (canonical CC-MAIN week naming).
	ID string
	// Label is the month range the snapshot covers, as the paper prints it.
	Label string
	// Date is the representative date: the most recent month of the
	// snapshot, which is how the paper plots multi-month snapshots (§3.2).
	Date time.Time
	// TargetSites is the paper's count of Stable Top 100k sites crawled in
	// the snapshot; TargetRobots is how many of those had a robots.txt.
	TargetSites  int
	TargetRobots int
}

func month(y int, m time.Month) time.Time {
	return time.Date(y, m, 1, 0, 0, 0, 0, time.UTC)
}

// Snapshots are the fifteen snapshots of Table 3, October 2022 through
// October 2024.
var Snapshots = []Snapshot{
	{"2022-40", "Sep/Oct 2022", month(2022, time.October), 40177, 31494},
	{"2022-49", "Nov/Dec 2022", month(2022, time.December), 40614, 31536},
	{"2023-06", "Jan/Feb 2023", month(2023, time.February), 39080, 30063},
	{"2023-14", "Mar/Apr 2023", month(2023, time.April), 39216, 29963},
	{"2023-23", "May/Jun 2023", month(2023, time.June), 39212, 30107},
	{"2023-40", "Sep/Oct 2023", month(2023, time.October), 39033, 29721},
	{"2023-50", "Nov/Dec 2023", month(2023, time.December), 39722, 30060},
	{"2024-10", "Feb/Mar 2024", month(2024, time.March), 41446, 31282},
	{"2024-18", "Apr 2024", month(2024, time.April), 41640, 31010},
	{"2024-22", "May 2024", month(2024, time.May), 41004, 30763},
	{"2024-26", "Jun 2024", month(2024, time.June), 41047, 30661},
	{"2024-30", "Jul 2024", month(2024, time.July), 40927, 30526},
	{"2024-33", "Aug 2024", month(2024, time.August), 40455, 29922},
	{"2024-38", "Sep 2024", month(2024, time.September), 40444, 29806},
	{"2024-42", "Oct 2024", month(2024, time.October), 40420, 29867},
}

// SnapshotIndex returns the position of the snapshot with the given ID,
// or -1 if unknown.
func SnapshotIndex(id string) int {
	for i, s := range Snapshots {
		if s.ID == id {
			return i
		}
	}
	return -1
}

// GPTBotAnnouncedIndex is the first snapshot after OpenAI announced the
// GPTBot and ChatGPT-User user agents (August 2023): "2023-40", Sep/Oct
// 2023. The Figure 2 surge happens here.
const GPTBotAnnouncedIndex = 5

// EUAIActIndex is the first snapshot after the EU AI Act's code-of-
// practice draft (Aug 2024) whose Sub-Measure 4.1 requires respecting
// robots.txt; Figures 2 and 3 show a secondary uptick from here.
const EUAIActIndex = 12

// Table4Row is one row of Appendix B.3's Table 4: a domain that explicitly
// and fully allows GPTBot, and the snapshot where that behaviour was first
// observed.
type Table4Row struct {
	Domain    string
	FirstSeen string // snapshot ID
}

// Table4 reproduces the paper's Table 4 verbatim (78 domains).
var Table4 = []Table4Row{
	{"nfhs.org", "2023-40"},
	{"10best.com", "2023-40"},
	{"ground.news", "2023-40"},
	{"opindia.com", "2024-42"},
	{"tarleton.edu", "2023-50"},
	{"alldatasheet.com", "2024-42"},
	{"bestproductsreviews.com", "2024-42"},
	{"network54.com", "2023-50"},
	{"care.com", "2024-42"},
	{"kbs.co.kr", "2024-42"},
	{"brit.co", "2024-42"},
	{"lonza.com", "2024-42"},
	{"millersville.edu", "2024-42"},
	{"icelandair.com", "2024-42"},
	{"customink.com", "2024-42"},
	{"celebmafia.com", "2024-18"},
	{"credit-agricole.fr", "2024-42"},
	{"adelaidenow.com.au", "2024-42"},
	{"dailytelegraph.com.au", "2024-42"},
	{"walkhighlands.co.uk", "2024-42"},
	{"softonic-ar.com", "2024-22"},
	{"heraldsun.com.au", "2024-42"},
	{"royalsocietypublishing.org", "2024-22"},
	{"softonic.com", "2024-42"},
	{"shopstyle.com", "2024-42"},
	{"couriermail.com.au", "2024-42"},
	{"theaustralian.com.au", "2024-42"},
	{"news.com.au", "2024-42"},
	{"kaufland.de", "2024-42"},
	{"sendpulse.com", "2024-26"},
	{"washingtonexaminer.com", "2024-33"},
	{"thedodo.com", "2024-42"},
	{"g2a.com", "2024-42"},
	{"fieldgulls.com", "2024-42"},
	{"recode.net", "2024-42"},
	{"novartis.com", "2024-38"},
	{"mmafighting.com", "2024-42"},
	{"vox.com", "2024-42"},
	{"mmamania.com", "2024-42"},
	{"bleedcubbieblue.com", "2024-42"},
	{"popsugar.com", "2024-42"},
	{"voxmedia.com", "2024-42"},
	{"patspulpit.com", "2024-42"},
	{"barcablaugranes.com", "2024-42"},
	{"eater.com", "2024-42"},
	{"popsugar.co.uk", "2024-42"},
	{"prideofdetroit.com", "2024-42"},
	{"royalsreview.com", "2024-42"},
	{"truebluela.com", "2024-42"},
	{"thrillist.com", "2024-42"},
	{"sbnation.com", "2024-42"},
	{"arrowheadpride.com", "2024-42"},
	{"theringer.com", "2024-42"},
	{"adslzone.net", "2024-42"},
	{"milehighreport.com", "2024-42"},
	{"polygon.com", "2024-42"},
	{"racked.com", "2024-42"},
	{"behindthesteelcurtain.com", "2024-42"},
	{"bavarianfootballworks.com", "2024-42"},
	{"bleedinggreennation.com", "2024-42"},
	{"silverscreenandroll.com", "2024-42"},
	{"gnc.com", "2024-42"},
	{"cagesideseats.com", "2024-42"},
	{"blazersedge.com", "2024-42"},
	{"badlefthook.com", "2024-42"},
	{"cincyjungle.com", "2024-42"},
	{"hogshaven.com", "2024-42"},
	{"bigblueview.com", "2024-42"},
	{"ninersnation.com", "2024-42"},
	{"pinstripealley.com", "2024-42"},
	{"bloggingtheboys.com", "2024-42"},
	{"quickbase.com", "2024-42"},
	{"embluemail.com", "2024-42"},
	{"softonic.com.br", "2024-42"},
	{"stimulustech.com", "2024-42"},
	{"searchenginejournal.com", "2024-42"},
	{"giant-bicycles.com", "2024-42"},
	{"realself.com", "2024-42"},
}

// Deal is a publicly known (or suspected) data-licensing agreement that
// led a publisher's domains to remove GPTBot restrictions from robots.txt
// (§3.3). EffectiveSnapshot is when the robots.txt change appears.
type Deal struct {
	Publisher string
	// EffectiveSnapshot is the snapshot ID where removals appear.
	EffectiveSnapshot string
	// Domains the publisher controls in the Stable Top 100k.
	Domains []string
	// ExplicitAllow is true when the publisher went further and added an
	// explicit "Allow: /" for GPTBot (the Vox Media and News Corp sites in
	// Table 4).
	ExplicitAllow bool
	// Public is false for suspected private deals (Future PLC, §3.3).
	Public bool
}

// Deals are the publisher agreements the paper documents. Domains that
// also appear in Table 4 get their explicit-allow first-seen snapshot from
// Table 4; the deal only controls when restrictions disappear.
var Deals = []Deal{
	{
		Publisher:         "Dotdash Meredith",
		EffectiveSnapshot: "2024-22", // May 2024 partnership [91]
		Public:            true,
		Domains: []string{
			"investopedia.com", "people.com", "allrecipes.com", "byrdie.com",
			"thespruce.com", "seriouseats.com", "simplyrecipes.com",
			"verywellhealth.com", "verywellmind.com", "verywellfit.com",
			"thebalancemoney.com", "lifewire.com", "tripsavvy.com",
			"liquor.com", "foodandwine.com", "travelandleisure.com",
			"realsimple.com", "shape.com", "health.com", "parents.com",
			"southernliving.com", "bhg.com", "marthastewart.com",
			"eatingwell.com", "instyle.com", "brides.com",
		},
	},
	{
		Publisher:         "Stack Exchange",
		EffectiveSnapshot: "2024-22", // May 2024 OpenAI partnership [84]
		Public:            true,
		Domains: []string{
			"stackoverflow.com", "superuser.com", "serverfault.com",
			"askubuntu.com", "stackexchange.com", "mathoverflow.net",
			"stackapps.com",
		},
	},
	{
		Publisher:         "Condé Nast",
		EffectiveSnapshot: "2024-33", // Aug 2024 deal [57]
		Public:            true,
		Domains: []string{
			"newyorker.com", "vanityfair.com", "wired.com", "vogue.com",
			"gq.com", "bonappetit.com", "epicurious.com", "glamour.com",
			"architecturaldigest.com", "cntraveler.com", "teenvogue.com",
			"allure.com", "self.com", "pitchfork.com", "arstechnica.com",
		},
	},
	{
		Publisher:         "Vox Media",
		EffectiveSnapshot: "2024-42", // Oct 2024 [58]; sites turn explicit-allow
		Public:            true,
		ExplicitAllow:     true,
		Domains: []string{
			"vox.com", "voxmedia.com", "sbnation.com", "polygon.com",
			"theringer.com", "eater.com", "thedodo.com", "thrillist.com",
			"popsugar.com", "popsugar.co.uk", "recode.net", "racked.com",
			"mmafighting.com", "mmamania.com", "bleedcubbieblue.com",
			"patspulpit.com", "barcablaugranes.com", "prideofdetroit.com",
			"royalsreview.com", "truebluela.com", "arrowheadpride.com",
			"milehighreport.com", "behindthesteelcurtain.com",
			"bavarianfootballworks.com", "bleedinggreennation.com",
			"silverscreenandroll.com", "cagesideseats.com", "blazersedge.com",
			"badlefthook.com", "cincyjungle.com", "hogshaven.com",
			"bigblueview.com", "ninersnation.com", "pinstripealley.com",
			"bloggingtheboys.com", "fieldgulls.com",
		},
	},
	{
		Publisher:         "News Corp Australia",
		EffectiveSnapshot: "2024-42",
		Public:            true,
		ExplicitAllow:     true,
		Domains: []string{
			"news.com.au", "theaustralian.com.au", "dailytelegraph.com.au",
			"heraldsun.com.au", "couriermail.com.au", "adelaidenow.com.au",
		},
	},
	{
		Publisher:         "Future PLC",
		EffectiveSnapshot: "2024-22", // May 2024, denied partnership [10]
		Public:            false,
		Domains: []string{
			"techradar.com", "tomsguide.com", "cyclingnews.com",
			"pcgamer.com", "gamesradar.com", "livescience.com",
			"space.com", "laptopmag.com", "whattowatch.com",
			"musicradar.com", "creativebloq.com", "itpro.com",
		},
	},
}

// pinnedDomains returns every domain named by Table 4 or a deal; the
// ranking model pins these into the stable population so the corpus can
// replay their documented histories.
func pinnedDomains() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	for _, r := range Table4 {
		add(r.Domain)
	}
	for _, deal := range Deals {
		for _, d := range deal.Domains {
			add(d)
		}
	}
	return out
}

// table4ByDomain indexes Table 4 for event construction.
var table4ByDomain = func() map[string]string {
	m := make(map[string]string, len(Table4))
	for _, r := range Table4 {
		m[r.Domain] = r.FirstSeen
	}
	return m
}()
