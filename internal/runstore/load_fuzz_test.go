package runstore

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// goldenDirs are the checked-in run directories cmd/rundiff's tests and
// CI diff against: a scenario run and a fleet run.
var goldenDirs = []string{
	"../../cmd/rundiff/testdata/golden",
	"../../cmd/rundiff/testdata/golden-fleet",
}

// FuzzLoadRunDir corrupts one segment of a golden run directory and
// reads it back: LoadRunDir must return a run or an error, a run it
// returns must agree with its meta.json and summary.json counts, and
// it must diff against the golden both ways and render in every
// format — each step answering with a result or an error, never a
// panic. which picks the golden (low bit) and the segment it overwrites
// with data.
func FuzzLoadRunDir(f *testing.F) {
	type golden struct {
		run   *Run
		names []string
		files map[string][]byte
	}
	var goldens []golden
	for i, dir := range goldenDirs {
		run, err := LoadRunDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			f.Fatal(err)
		}
		g := golden{run: run, files: map[string][]byte{}}
		for j, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			g.names = append(g.names, e.Name())
			g.files[e.Name()] = data
			which := uint8(j<<1 | i)
			f.Add(which, data)               // intact: loads, diffs empty
			f.Add(which, data[:len(data)/2]) // truncated mid-segment
		}
		goldens = append(goldens, g)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		g := goldens[int(which&1)]
		dir := t.TempDir()
		victim := g.names[int(which>>1)%len(g.names)]
		for name, content := range g.files {
			if name == victim {
				content = data
			}
			if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		run, err := LoadRunDir(dir)
		if err != nil {
			return
		}
		visits := 0
		for _, m := range run.Months {
			visits += m.Visits
		}
		if len(run.Months) != run.Meta.Months || visits != run.Meta.Visits {
			t.Errorf("loaded %d months with %d visits, meta says %d and %d",
				len(run.Months), visits, run.Meta.Months, run.Meta.Visits)
		}
		if run.Summary != nil && len(run.Sites) != run.Summary.SitesStored {
			t.Errorf("loaded %d site plans, summary says %d", len(run.Sites), run.Summary.SitesStored)
		}
		if run.Meta.Kind == KindExperiments && len(run.Experiments) != run.Meta.Records {
			t.Errorf("loaded %d experiment records, meta says %d", len(run.Experiments), run.Meta.Records)
		}
		if run.Decisions != nil && run.Decisions.Issued != int64(run.Meta.Records) {
			t.Errorf("decisions issued %d, meta says %d records", run.Decisions.Issued, run.Meta.Records)
		}
		RenderRun(io.Discard, run)
		for _, d := range []*Diff{DiffRuns(g.run, run), DiffRuns(run, g.run)} {
			for _, format := range []string{FormatText, formatMarkdown, formatJSON} {
				d.Render(io.Discard, format) // an error is an answer too
			}
		}
	})
}
