package runstore

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"repro/internal/measure"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// absent marks a record present on only one side of a diff.
const absent = "(absent)"

// maxStoredDeltas caps the deltas a Section carries; its Total and
// Totals always count every delta.
const maxStoredDeltas = 1000

// Delta is one field of one keyed record that differs between two runs:
// a token's verdict, a month's visit count, a site's blocker, a tenant's
// granted count. A and B are the field's text in each run, or (absent)
// where the record exists in only one.
type Delta struct {
	Key   string `json:"key"`
	Field string `json:"field"`
	A     string `json:"a"`
	B     string `json:"b"`
}

// Section is one category's deltas.
type Section struct {
	// Name is the category's -fail-on name; Noun names its deltas in a
	// tripped gate's message.
	Name     string `json:"name"`
	Title    string `json:"title"`
	Noun     string `json:"-"`
	Advisory bool   `json:"advisory,omitempty"`
	// Total counts every delta and Totals every delta per field, even
	// past the maxStoredDeltas that Deltas holds.
	Total  int            `json:"total"`
	Totals map[string]int `json:"totals,omitempty"`
	Deltas []Delta        `json:"deltas,omitempty"`
}

func (s *Section) add(d Delta) {
	if s.Totals == nil {
		s.Totals = make(map[string]int)
	}
	s.Total++
	s.Totals[d.Field]++
	if len(s.Deltas) < maxStoredDeltas {
		s.Deltas = append(s.Deltas, d)
	}
}

// Diff is the semantic delta between two runs: one Section per category,
// in the order of the categories table, then the advisory obs drift.
type Diff struct {
	A        Meta      `json:"a"`
	B        Meta      `json:"b"`
	Sections []Section `json:"sections"`
}

// Empty reports whether the runs are semantically identical. Advisory
// sections (bench, metrics) are ignored: two runs of the same
// (spec, seed, rev) must diff Empty even though their wall-clock
// metrics drifted.
func (d *Diff) Empty() bool {
	for _, s := range d.Sections {
		if !s.Advisory && s.Total > 0 {
			return false
		}
	}
	return true
}

// record is one keyed unit of a segment — a token, a month, a site, a
// tenant — as named text fields.
type record struct {
	key    string
	fields []field
}

type field struct{ name, value string }

// categories are the segments the differ compares. A view projects a
// run's segment into records, or returns nil when the run lacks it.
var categories = []struct {
	name, title, noun string
	advisory          bool
	view              func(*Run) []record
}{
	{"migrations", "Verdict migrations", "verdict migrations", false, verdictView},
	{"months", "Month metric deltas", "month-metric deltas", false, monthView},
	{"flips", "Policy/blocker flips", "policy/blocker flips", false, siteView},
	{"mix", "Decision mix shifts", "decision-mix shifts", false, mixView},
	{"quotas", "Tenant quota shifts", "tenant quota shifts", false, quotaView},
	{"experiments", "Experiment changes", "experiment changes", false, experimentView},
	{"bench", "Benchmark deltas", "", true, benchView},
}

// DiffRuns computes the semantic delta from a to b. Only segments both
// runs carry are compared, so scenario runs diff against scenario runs,
// experiment runs against experiment runs, and a mixed pair degrades to
// the shared segments (typically just metrics drift).
func DiffRuns(a, b *Run) *Diff {
	d := &Diff{A: a.Meta, B: b.Meta}
	for _, c := range categories {
		s := Section{Name: c.name, Title: c.title, Noun: c.noun, Advisory: c.advisory}
		if ra, rb := c.view(a), c.view(b); ra != nil && rb != nil {
			s.compare(ra, rb)
		}
		d.Sections = append(d.Sections, s)
	}
	// Snapshot drift is advisory; a malformed segment (hand-edited
	// store) degrades to an empty section rather than failing the diff.
	s := Section{Name: "metrics", Title: "Obs metric drift", Advisory: true}
	if len(a.Metrics) > 0 && len(b.Metrics) > 0 {
		deltas, _ := obs.SnapshotDelta(a.Metrics, b.Metrics)
		for _, m := range deltas {
			s.add(Delta{Key: m.Name, Field: "value", A: metricText(m.A, m.InA), B: metricText(m.B, m.InB)})
		}
	}
	d.Sections = append(d.Sections, s)
	return d
}

func metricText(v float64, present bool) string {
	if !present {
		return absent
	}
	return fmt.Sprintf("%g", v)
}

// compare adds one Delta per field that differs between the records of
// a and b sharing a key, in a's record order and then b's; a record in
// only one run reads (absent) in the other.
func (s *Section) compare(a, b []record) {
	inA := make(map[string]bool, len(a))
	inB := make(map[string]int, len(b))
	for i, r := range b {
		inB[r.key] = i
	}
	for _, ra := range a {
		inA[ra.key] = true
		var fb []field
		if j, ok := inB[ra.key]; ok {
			fb = b[j].fields
		}
		s.compareFields(ra.key, ra.fields, fb)
	}
	for _, rb := range b {
		if !inA[rb.key] {
			s.compareFields(rb.key, nil, rb.fields)
		}
	}
}

func (s *Section) compareFields(key string, a, b []field) {
	for _, f := range a {
		if v, ok := lookup(b, f.name); !ok || v != f.value {
			s.add(Delta{Key: key, Field: f.name, A: f.value, B: v})
		}
	}
	for _, f := range b {
		if _, ok := lookup(a, f.name); !ok {
			s.add(Delta{Key: key, Field: f.name, A: absent, B: f.value})
		}
	}
}

// lookup returns the named field's value, or (absent).
func lookup(fs []field, name string) (string, bool) {
	for _, f := range fs {
		if f.name == name {
			return f.value, true
		}
	}
	return absent, false
}

func verdictView(r *Run) []record {
	if r.Verdicts == nil {
		return nil
	}
	tokens := make([]string, 0, len(r.Verdicts))
	for t := range r.Verdicts {
		tokens = append(tokens, t)
	}
	sort.Strings(tokens)
	recs := make([]record, 0, len(tokens))
	for _, t := range tokens {
		recs = append(recs, record{t, []field{{"verdict", r.Verdicts[t]}}})
	}
	return recs
}

// monthFields enumerates MonthMetrics' integer fields for the differ.
var monthFields = []struct {
	name string
	get  func(scenario.MonthMetrics) int64
}{
	{"adopted_sites", func(m scenario.MonthMetrics) int64 { return int64(m.AdoptedSites) }},
	{"managed_sites", func(m scenario.MonthMetrics) int64 { return int64(m.ManagedSites) }},
	{"active_blockers", func(m scenario.MonthMetrics) int64 { return int64(m.ActiveBlockers) }},
	{"visits", func(m scenario.MonthMetrics) int64 { return int64(m.Visits) }},
	{"robots_fetches", func(m scenario.MonthMetrics) int64 { return int64(m.RobotsFetches) }},
	{"disallowed_bytes", func(m scenario.MonthMetrics) int64 { return m.DisallowedBytes }},
	{"allowed_bytes", func(m scenario.MonthMetrics) int64 { return m.AllowedBytes }},
	{"blocked_requests", func(m scenario.MonthMetrics) int64 { return int64(m.BlockedRequests) }},
	{"gap_missing", func(m scenario.MonthMetrics) int64 { return int64(m.GapMissing) }},
	{"gap_announced", func(m scenario.MonthMetrics) int64 { return int64(m.GapAnnounced) }},
	{"gap_sites", func(m scenario.MonthMetrics) int64 { return int64(m.GapSites) }},
}

// monthView keys each month by its calendar label, after a (shape)
// record holding the month count.
func monthView(r *Run) []record {
	if len(r.Months) == 0 {
		return nil
	}
	recs := make([]record, 0, len(r.Months)+1)
	recs = append(recs, record{"(shape)", []field{{"month_count", strconv.Itoa(len(r.Months))}}})
	for _, m := range r.Months {
		fs := make([]field, 0, len(monthFields)+len(m.ClassCounts))
		for _, f := range monthFields {
			fs = append(fs, field{f.name, strconv.FormatInt(f.get(m), 10)})
		}
		for c, n := range m.ClassCounts {
			fs = append(fs, field{"class:" + measure.Verdict(c).String(), strconv.Itoa(n)})
		}
		recs = append(recs, record{m.Label, fs})
	}
	return recs
}

// siteView keys each stored site plan by its domain, after a
// (population) record holding the site count.
func siteView(r *Run) []record {
	if len(r.Sites) == 0 {
		return nil
	}
	recs := make([]record, 0, len(r.Sites)+1)
	recs = append(recs, record{"(population)", []field{{"site_count", strconv.Itoa(len(r.Sites))}}})
	for _, p := range r.Sites {
		recs = append(recs, record{p.Domain, []field{
			{"adopt_month", strconv.Itoa(p.AdoptMonth)},
			{"style", orNone(p.Style)},
			{"blocker", strconv.FormatBool(p.Blocker)},
		}})
	}
	return recs
}

func orNone(s string) string {
	if s == "" {
		return "(none)"
	}
	return s
}

func mixView(r *Run) []record {
	m := r.Decisions
	if m == nil {
		return nil
	}
	return []record{{"(mix)", []field{
		{"issued", strconv.FormatInt(m.Issued, 10)},
		{"allow", strconv.FormatInt(m.Allow, 10)},
		{"deny", strconv.FormatInt(m.Deny, 10)},
		{"block", strconv.FormatInt(m.Block, 10)},
	}}}
}

// quotaView holds the limiter's rate and burst under (limiter), then
// one record per tenant.
func quotaView(r *Run) []record {
	q := r.Quotas
	if q == nil {
		return nil
	}
	recs := make([]record, 0, len(q.Tenants)+1)
	recs = append(recs, record{"(limiter)", []field{{"rate", floatText(q.Rate)}, {"burst", floatText(q.Burst)}}})
	for _, t := range q.Tenants {
		recs = append(recs, record{t.Tenant, []field{
			{"granted", strconv.FormatUint(t.Granted, 10)},
			{"throttled", strconv.FormatUint(t.Throttled, 10)},
		}})
	}
	return recs
}

func floatText(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// experimentView stands for each experiment's stored line by a short
// digest of it, so a changed output reads as two digests; the prefix
// keeps a digest of only digits from reading as a number.
func experimentView(r *Run) []record {
	if len(r.Experiments) == 0 {
		return nil
	}
	recs := make([]record, 0, len(r.Experiments))
	for _, e := range r.Experiments {
		sum := sha256.Sum256(e.Raw)
		recs = append(recs, record{e.ID, []field{{"output", "sha256:" + hex.EncodeToString(sum[:6])}}})
	}
	return recs
}

func benchView(r *Run) []record {
	if len(r.Bench) == 0 {
		return nil
	}
	names := make([]string, 0, len(r.Bench))
	for n := range r.Bench {
		names = append(names, n)
	}
	sort.Strings(names)
	recs := make([]record, 0, len(names))
	for _, n := range names {
		e := r.Bench[n]
		recs = append(recs, record{n, []field{
			{"ns_per_op", floatText(e.NsPerOp)},
			{"allocs_per_op", strconv.FormatInt(e.AllocsPerOp, 10)},
		}})
	}
	return recs
}
