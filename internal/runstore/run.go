package runstore

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/scenario"
)

// ExperimentRecord is one stored experiment result: its id plus the raw
// NDJSON line, compared byte-for-byte by the differ.
type ExperimentRecord struct {
	ID  string
	Raw json.RawMessage
}

// UnmarshalJSON keeps the whole line and decodes only its ID.
func (e *ExperimentRecord) UnmarshalJSON(line []byte) error {
	var idOnly struct {
		ID string `json:"ID"`
	}
	if err := json.Unmarshal(line, &idOnly); err != nil {
		return err
	}
	e.ID, e.Raw = idOnly.ID, append(json.RawMessage(nil), line...)
	return nil
}

// BenchEntry is the slice of a benchsnap-schema benchmark entry the
// differ reads.
type BenchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Run is one loaded run directory. Segments a run kind doesn't produce
// stay nil/empty; the differ only compares what both sides have.
type Run struct {
	Dir  string
	Meta Meta

	Spec     *scenario.Spec
	Months   []scenario.MonthMetrics
	Verdicts map[string]string
	Sites    []scenario.SitePlan
	Summary  *Summary

	Experiments []ExperimentRecord
	Decisions   *DecisionMix
	Quotas      *QuotaAccounting
	Bench       map[string]BenchEntry

	// Metrics is the raw end-of-run obs snapshot (metrics.json).
	Metrics []byte
}

// LoadRun reads a run by id from the store.
func (s *Store) LoadRun(id string) (*Run, error) {
	return LoadRunDir(s.runDir(id))
}

// LoadRunDir reads a run directory — a store member or a standalone
// (e.g. checked-in golden) directory. A directory whose segments
// disagree with its meta.json (a truncated copy, a hand edit, a partial
// sync) is an error, not a different run.
func LoadRunDir(dir string) (*Run, error) {
	meta, err := optional[Meta](dir, metaFile)
	if err != nil {
		return nil, err
	}
	if meta == nil {
		return nil, fmt.Errorf("runstore: %s is not a run directory (no %s)", dir, metaFile)
	}
	r := &Run{Dir: dir, Meta: *meta}
	if r.Spec, err = optional[scenario.Spec](dir, specFile); err != nil {
		return nil, err
	}
	if r.Months, err = lines[scenario.MonthMetrics](dir, monthsFile); err != nil {
		return nil, err
	}
	verdicts, err := optional[map[string]string](dir, verdictsFile)
	if err != nil {
		return nil, err
	}
	if verdicts != nil {
		r.Verdicts = *verdicts
	}
	if r.Sites, err = lines[scenario.SitePlan](dir, sitesFile); err != nil {
		return nil, err
	}
	if r.Summary, err = optional[Summary](dir, summaryFile); err != nil {
		return nil, err
	}
	if r.Experiments, err = lines[ExperimentRecord](dir, experimentsFile); err != nil {
		return nil, err
	}
	if r.Decisions, err = optional[DecisionMix](dir, decisionsFile); err != nil {
		return nil, err
	}
	if r.Quotas, err = optional[QuotaAccounting](dir, quotasFile); err != nil {
		return nil, err
	}
	bench, err := optional[struct {
		Benchmarks map[string]BenchEntry `json:"benchmarks"`
	}](dir, benchFile)
	if err != nil {
		return nil, err
	}
	if bench != nil {
		r.Bench = bench.Benchmarks
	}
	if data, err := os.ReadFile(filepath.Join(dir, metricsFile)); err == nil {
		r.Metrics = data
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	if err := r.checkCounts(); err != nil {
		return nil, err
	}
	return r, nil
}

// checkCounts holds the loaded segments to the counts meta.json (and,
// for the per-site segment, summary.json) recorded when the run was
// saved.
func (r *Run) checkCounts() error {
	visits := 0
	for _, m := range r.Months {
		visits += m.Visits
	}
	bad := func(seg string, got int64, what, src string, want int64) error {
		return fmt.Errorf("runstore: %s: %s holds %d %s, %s says %d", r.Dir, seg, got, what, src, want)
	}
	switch {
	case len(r.Months) != r.Meta.Months:
		return bad(monthsFile, int64(len(r.Months)), "months", metaFile, int64(r.Meta.Months))
	case visits != r.Meta.Visits:
		return bad(monthsFile, int64(visits), "visits", metaFile, int64(r.Meta.Visits))
	case r.Summary != nil && len(r.Sites) != r.Summary.SitesStored:
		return bad(sitesFile, int64(len(r.Sites)), "site plans", summaryFile, int64(r.Summary.SitesStored))
	case r.Meta.Kind == KindExperiments && len(r.Experiments) != r.Meta.Records:
		return bad(experimentsFile, int64(len(r.Experiments)), "records", metaFile, int64(r.Meta.Records))
	case r.Decisions != nil && r.Decisions.Issued != int64(r.Meta.Records):
		return bad(decisionsFile, r.Decisions.Issued, "issued decisions", metaFile, int64(r.Meta.Records))
	}
	return nil
}

// optional decodes one JSON segment; an absent segment is nil.
func optional[T any](dir, name string) (*T, error) {
	data, err := os.ReadFile(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	v := new(T)
	if err := json.Unmarshal(data, v); err != nil {
		return nil, fmt.Errorf("runstore: %s: %w", name, err)
	}
	return v, nil
}

// lines decodes an NDJSON segment, one record per non-blank line; an
// absent segment is nil.
func lines[T any](dir, name string) ([]T, error) {
	f, err := os.Open(filepath.Join(dir, name))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	defer f.Close()
	var out []T
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var v T
		if err := json.Unmarshal(line, &v); err != nil {
			return nil, fmt.Errorf("runstore: %s: %w", name, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("runstore: %s: %w", name, err)
	}
	return out, nil
}
