package runstore

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
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
// structure: a header identifying the two runs, then one table of
// deltas per non-empty section, each closed by its per-field totals.
func (d *Diff) renderTabular(w io.Writer, md bool) error {
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

	for _, s := range d.Sections {
		if s.Total == 0 {
			continue
		}
		title := fmt.Sprintf("%s (%d)", s.Title, s.Total)
		if s.Advisory {
			title = fmt.Sprintf("%s (advisory, %d)", s.Title, s.Total)
		}
		rows := [][]string{{"key", "field", "a", "b", "delta"}}
		for _, x := range s.Deltas {
			rows = append(rows, []string{x.Key, x.Field, x.A, x.B, change(x.A, x.B)})
		}
		if md {
			fmt.Fprintf(w, "\n## %s\n\n", title)
			rows = slices.Insert(rows, 1, []string{"---", "---", "---", "---", "---"})
			for _, r := range rows {
				// A cell may hold a client-supplied string (a tenant is
				// an agent), so a '|' in it is escaped, not a column break.
				for i, c := range r {
					r[i] = strings.ReplaceAll(c, "|", "\\|")
				}
				fmt.Fprintf(w, "| %s |\n", strings.Join(r, " | "))
			}
		} else {
			fmt.Fprintf(w, "\n%s\n%s\n", title, strings.Repeat("-", len(title)))
			tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
			for _, r := range rows {
				fmt.Fprintln(tw, strings.Join(r, "\t"))
			}
			tw.Flush()
		}
		if s.Total > len(s.Deltas) {
			fmt.Fprintf(w, "\n(%d shown of %d; totals by field: %s)\n",
				len(s.Deltas), s.Total, formatTotals(s.Totals))
		} else {
			fmt.Fprintf(w, "\n(totals by field: %s)\n", formatTotals(s.Totals))
		}
	}
	return nil
}

// change is b-a when both values are numbers, else empty.
func change(a, b string) string {
	if x, err := strconv.ParseInt(a, 10, 64); err == nil {
		if y, err := strconv.ParseInt(b, 10, 64); err == nil {
			return fmt.Sprintf("%+d", y-x)
		}
	}
	x, errA := strconv.ParseFloat(a, 64)
	y, errB := strconv.ParseFloat(b, 64)
	if errA != nil || errB != nil {
		return ""
	}
	return fmt.Sprintf("%+.6g", y-x)
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
