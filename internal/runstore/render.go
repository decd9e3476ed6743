package runstore

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
)

// Render formats.
const (
	FormatText     = "text"
	formatMarkdown = "markdown"
	formatJSON     = "json"
)

// Render writes the diff in the given format ("text", "markdown",
// "json").
func (d *Diff) Render(w io.Writer, format string) error {
	switch format {
	case formatJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(d)
	case FormatText:
		return d.renderTabular(w, false)
	case formatMarkdown:
		return d.renderTabular(w, true)
	default:
		return fmt.Errorf("runstore: unknown render format %q", format)
	}
}

// renderTabular writes the text and markdown renderings, which share
// structure: a header identifying the two runs, then one section per
// non-empty diff category.
func (d *Diff) renderTabular(w io.Writer, md bool) error {
	section := func(title string) {
		if md {
			fmt.Fprintf(w, "\n## %s\n\n", title)
		} else {
			fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
		}
	}
	table := func(header []string, rows [][]string) {
		if md {
			// A cell may hold a client-supplied string (a tenant is an
			// agent), so a '|' in it is escaped, not a column break.
			row := func(cells []string) {
				esc := make([]string, len(cells))
				for i, c := range cells {
					esc[i] = strings.ReplaceAll(c, "|", "\\|")
				}
				fmt.Fprintf(w, "| %s |\n", strings.Join(esc, " | "))
			}
			row(header)
			sep := make([]string, len(header))
			for i := range sep {
				sep[i] = "---"
			}
			row(sep)
			for _, r := range rows {
				row(r)
			}
			return
		}
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, strings.Join(header, "\t"))
		for _, r := range rows {
			fmt.Fprintln(tw, strings.Join(r, "\t"))
		}
		tw.Flush()
	}

	if md {
		fmt.Fprintf(w, "# rundiff: %s vs %s\n\n", d.A.ID, d.B.ID)
	} else {
		fmt.Fprintf(w, "rundiff: %s vs %s\n", d.A.ID, d.B.ID)
	}
	describe := func(side string, m Meta) {
		fmt.Fprintf(w, "%s: %s kind=%s name=%s spec=%s seed=%d rev=%s\n",
			side, m.ID, m.Kind, m.Name, m.SpecHash, m.Seed, orNone(shortRev(m.GitRev)))
	}
	describe("  a", d.A)
	describe("  b", d.B)

	if d.Empty() {
		fmt.Fprintf(w, "\nsemantically identical (no verdict, month, policy, mix, quota, or experiment deltas)\n")
	}

	if len(d.VerdictMigrations) > 0 {
		section(fmt.Sprintf("Verdict migrations (%d)", len(d.VerdictMigrations)))
		rows := make([][]string, 0, len(d.VerdictMigrations))
		for _, m := range d.VerdictMigrations {
			rows = append(rows, []string{m.Token, m.From, "->", m.To})
		}
		table([]string{"token", "from", "", "to"}, rows)
	}

	if len(d.MonthDeltas) > 0 {
		section(fmt.Sprintf("Month metric deltas (%d)", len(d.MonthDeltas)))
		rows := make([][]string, 0, len(d.MonthDeltas))
		for _, m := range d.MonthDeltas {
			label := m.Label
			if m.Month < 0 {
				label = "(shape)"
			}
			rows = append(rows, []string{
				label, m.Field,
				fmt.Sprint(m.A), fmt.Sprint(m.B), fmt.Sprintf("%+d", m.B-m.A),
			})
		}
		table([]string{"month", "field", "a", "b", "delta"}, rows)
	}

	if len(d.PolicyFlips) > 0 {
		total := 0
		for _, n := range d.FlipTotals {
			total += n
		}
		section(fmt.Sprintf("Policy/blocker flips (%d)", total))
		rows := make([][]string, 0, len(d.PolicyFlips))
		for _, f := range d.PolicyFlips {
			rows = append(rows, []string{f.Domain, f.Field, f.A, "->", f.B})
		}
		table([]string{"host", "field", "a", "", "b"}, rows)
		if total > len(d.PolicyFlips) {
			fmt.Fprintf(w, "\n(%d flips shown of %d; totals by field: %s)\n",
				len(d.PolicyFlips), total, formatTotals(d.FlipTotals))
		} else {
			fmt.Fprintf(w, "\n(totals by field: %s)\n", formatTotals(d.FlipTotals))
		}
	}

	if len(d.MixDeltas) > 0 {
		section(fmt.Sprintf("Decision mix shifts (%d)", len(d.MixDeltas)))
		rows := make([][]string, 0, len(d.MixDeltas))
		for _, m := range d.MixDeltas {
			rows = append(rows, []string{
				m.Action, fmt.Sprint(m.A), fmt.Sprint(m.B), fmt.Sprintf("%+d", m.B-m.A),
			})
		}
		table([]string{"action", "a", "b", "delta"}, rows)
	}

	if len(d.QuotaDeltas) > 0 {
		section(fmt.Sprintf("Tenant quota shifts (%d)", len(d.QuotaDeltas)))
		rows := make([][]string, 0, len(d.QuotaDeltas))
		for _, q := range d.QuotaDeltas {
			rows = append(rows, []string{
				q.Tenant, q.Field, fmt.Sprint(q.A), fmt.Sprint(q.B), fmt.Sprintf("%+d", q.B-q.A),
			})
		}
		table([]string{"tenant", "field", "a", "b", "delta"}, rows)
	}

	if len(d.ExperimentChanges) > 0 {
		section(fmt.Sprintf("Experiment changes (%d)", len(d.ExperimentChanges)))
		rows := make([][]string, 0, len(d.ExperimentChanges))
		for _, c := range d.ExperimentChanges {
			rows = append(rows, []string{c.ID, c.Change})
		}
		table([]string{"experiment", "change"}, rows)
	}

	if len(d.BenchDeltas) > 0 {
		section(fmt.Sprintf("Benchmark deltas (advisory, %d)", len(d.BenchDeltas)))
		rows := make([][]string, 0, len(d.BenchDeltas))
		for _, b := range d.BenchDeltas {
			rows = append(rows, []string{
				b.Name,
				fmt.Sprintf("%.0f", b.ANsOp), fmt.Sprintf("%.0f", b.BNsOp),
				fmt.Sprintf("%.2fx", b.Speedup),
				fmt.Sprint(b.AAllocs), fmt.Sprint(b.BAllocs),
			})
		}
		table([]string{"benchmark", "a ns/op", "b ns/op", "speedup", "a allocs", "b allocs"}, rows)
	}

	if len(d.MetricDeltas) > 0 {
		section(fmt.Sprintf("Obs metric drift (advisory, %d)", len(d.MetricDeltas)))
		rows := make([][]string, 0, len(d.MetricDeltas))
		for _, m := range d.MetricDeltas {
			a, b := fmt.Sprintf("%g", m.A), fmt.Sprintf("%g", m.B)
			if !m.InA {
				a = absent
			}
			if !m.InB {
				b = absent
			}
			rows = append(rows, []string{m.Name, a, b, fmt.Sprintf("%+g", m.Diff)})
		}
		table([]string{"metric", "a", "b", "delta"}, rows)
	}
	return nil
}

// formatTotals renders counts as "key=n" pairs sorted by key.
func formatTotals(totals map[string]int) string {
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, totals[k]))
	}
	return strings.Join(parts, " ")
}

// RenderList writes a one-line-per-run listing of manifest entries.
func RenderList(w io.Writer, runs []Meta) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "ID\tKIND\tNAME\tSPEC\tSEED\tREV\tSITES\tMONTHS\tVISITS\tRECORDS")
	for _, m := range runs {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%s\t%d\t%d\t%d\t%d\n",
			m.ID, m.Kind, m.Name, m.SpecHash, m.Seed, orNone(shortRev(m.GitRev)),
			m.Sites, m.Months, m.Visits, m.Records)
	}
	tw.Flush()
}

// RenderRun writes a human summary of one loaded run.
func RenderRun(w io.Writer, r *Run) {
	m := r.Meta
	fmt.Fprintf(w, "run %s\n", m.ID)
	fmt.Fprintf(w, "  kind=%s name=%s spec=%s seed=%d\n", m.Kind, m.Name, m.SpecHash, m.Seed)
	fmt.Fprintf(w, "  rev=%s go=%s gomaxprocs=%d cpus=%d\n",
		orNone(shortRev(m.GitRev)), m.GoVersion, m.GOMAXPROCS, m.CPUs)
	fmt.Fprintf(w, "  at %s\n", m.Timestamp.Format("2006-01-02T15:04:05Z"))
	if len(r.Months) > 0 {
		fmt.Fprintf(w, "  months=%d sites=%d visits=%d\n", len(r.Months), m.Sites, m.Visits)
	}
	if r.Summary != nil {
		fmt.Fprintf(w, "  visits=%d disallowed_bytes=%d blocked=%d\n",
			r.Summary.TotalVisits, r.Summary.TotalDisallowedBytes, r.Summary.TotalBlockedRequests)
		if len(r.Summary.VerdictClasses) > 0 {
			fmt.Fprintf(w, "  verdicts: %s\n", formatTotals(r.Summary.VerdictClasses))
		}
	}
	if len(r.Experiments) > 0 {
		fmt.Fprintf(w, "  experiments=%d\n", len(r.Experiments))
	}
	if r.Decisions != nil {
		fmt.Fprintf(w, "  decisions: issued=%d allow=%d deny=%d block=%d\n",
			r.Decisions.Issued, r.Decisions.Allow, r.Decisions.Deny, r.Decisions.Block)
	}
	if len(r.Sites) > 0 {
		fmt.Fprintf(w, "  site plans stored: %d\n", len(r.Sites))
	}
	if len(r.Bench) > 0 {
		fmt.Fprintf(w, "  bench entries: %d\n", len(r.Bench))
	}
	if len(r.Metrics) > 0 {
		fmt.Fprintf(w, "  obs snapshot: %d bytes\n", len(r.Metrics))
	}
}
