package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Sink consumes completed experiment results. RunAll emits results to
// its sink in deterministic registration order, so any Sink
// implementation observes the same sequence whether the run was
// sequential or parallel. Emit is never called concurrently.
type Sink interface {
	// Emit renders one result.
	Emit(res *Result) error
}

// formats lists the sink formats NewSink accepts.
var formats = []string{"text", "markdown", "json"}

// NewSink returns the sink for a format name: "text" (aligned tables with
// sparklines), "markdown" (GitHub-flavored), or "json" (one JSON object
// per result, newline-delimited).
func NewSink(format string, w io.Writer) (Sink, error) {
	switch format {
	case "text":
		return textSink{w}, nil
	case "markdown", "md":
		return markdownSink{w}, nil
	case "json":
		return NewJSONSink(w), nil
	default:
		return nil, fmt.Errorf("core: unknown sink format %q (want %s)",
			format, strings.Join(formats, ", "))
	}
}

// textSink renders results as aligned terminal text.
type textSink struct{ w io.Writer }

func (s textSink) Emit(res *Result) error { return render(s.w, res) }

// markdownSink renders results as GitHub-flavored markdown.
type markdownSink struct{ w io.Writer }

func (s markdownSink) Emit(res *Result) error { return renderMarkdown(s.w, res) }

// NewJSONSink emits each result as one JSON object per line (NDJSON), so
// output can be streamed into jq or loaded row by row.
func NewJSONSink(w io.Writer) Sink {
	return jsonSink{json.NewEncoder(w)}
}

type jsonSink struct{ enc *json.Encoder }

func (s jsonSink) Emit(res *Result) error { return s.enc.Encode(res) }

// render writes a result as aligned text.
func render(w io.Writer, res *Result) error {
	if _, err := fmt.Fprintf(w, "=== %s — %s ===\n", res.ID, res.Title); err != nil {
		return err
	}
	for _, sec := range res.Sections {
		if sec.Heading != "" {
			fmt.Fprintf(w, "\n%s\n", sec.Heading)
		}
		if sec.Table != nil {
			renderTable(w, sec.Table)
		}
		for _, s := range sec.Series {
			fmt.Fprintf(w, "  %-24s %s  (last %.2f, max %.2f)\n",
				s.Name, s.Sparkline(), s.Last().Value, s.Max())
		}
		for _, note := range sec.Notes {
			fmt.Fprintf(w, "  note: %s\n", note)
		}
	}
	fmt.Fprintln(w)
	return nil
}

func renderTable(w io.Writer, t *Table) {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		sb.WriteString("  ")
		for i, cell := range cells {
			if i >= len(widths) {
				break // ragged row: drop cells beyond the header count
			}
			pad := widths[i] - len(cell)
			sb.WriteString(cell)
			sb.WriteString(strings.Repeat(" ", pad+2))
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// renderMarkdown writes a result as GitHub-flavored markdown, so
// experiment output can be pasted into reports like EXPERIMENTS.md.
func renderMarkdown(w io.Writer, res *Result) error {
	if _, err := fmt.Fprintf(w, "## %s — %s\n", res.ID, res.Title); err != nil {
		return err
	}
	for _, sec := range res.Sections {
		if sec.Heading != "" {
			fmt.Fprintf(w, "\n### %s\n", sec.Heading)
		}
		if sec.Table != nil {
			fmt.Fprintln(w)
			writeMarkdownTable(w, sec.Table)
		}
		if len(sec.Series) > 0 {
			fmt.Fprintln(w)
			for _, s := range sec.Series {
				fmt.Fprintf(w, "- `%s` %s (last %.2f, max %.2f)\n",
					s.Name, s.Sparkline(), s.Last().Value, s.Max())
			}
		}
		if len(sec.Notes) > 0 {
			fmt.Fprintln(w)
			for _, n := range sec.Notes {
				fmt.Fprintf(w, "> %s\n", n)
			}
		}
	}
	fmt.Fprintln(w)
	return nil
}

func writeMarkdownTable(w io.Writer, t *Table) {
	esc := func(s string) string {
		return strings.ReplaceAll(s, "|", "\\|")
	}
	cells := make([]string, len(t.Headers))
	for i, h := range t.Headers {
		cells[i] = esc(h)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(cells, " | "))
	seps := make([]string, len(t.Headers))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		out := make([]string, len(t.Headers))
		for i := range out {
			if i < len(row) {
				out[i] = esc(row[i])
			}
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(out, " | "))
	}
}
