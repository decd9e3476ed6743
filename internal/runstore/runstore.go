package runstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// Segment file names within a run directory.
const (
	manifestFile    = "manifest.ndjson"
	metaFile        = "meta.json"
	specFile        = "spec.json"
	monthsFile      = "months.ndjson"
	verdictsFile    = "verdicts.json"
	sitesFile       = "sites.ndjson"
	summaryFile     = "summary.json"
	experimentsFile = "experiments.ndjson"
	decisionsFile   = "decisions.json"
	quotasFile      = "quotas.json"
	benchFile       = "bench.json"
	metricsFile     = "metrics.json"
)

// maxSitePlans bounds the per-site segment: a run with more sites than
// this stores aggregate state only, so million-site runs don't pay a
// multi-megabyte sites.ndjson by default. Writers expose the knob.
const maxSitePlans = 65536

// Store is one run-store directory. All methods are safe for concurrent
// use within a process; cross-process manifest appends rely on
// O_APPEND, and run-directory creation on mkdir atomicity.
type Store struct {
	dir string
	mu  sync.Mutex
}

// Open opens (creating if needed) a store directory.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir is the store's root directory.
func (s *Store) Dir() string { return s.dir }

// runDir is the directory of a run id.
func (s *Store) runDir(id string) string { return filepath.Join(s.dir, id) }

// begin allocates a unique run id and creates its directory. The id
// embeds the wall-clock start, kind, and spec-hash prefix; a numeric
// suffix disambiguates collisions (two runs of the same spec within a
// second).
func (s *Store) begin(meta *Meta) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	base := fmt.Sprintf("%s-%s-%s",
		meta.Timestamp.Format("20060102T150405Z"), meta.Kind, meta.SpecHash[:8])
	id := base
	for n := 2; ; n++ {
		err := os.Mkdir(filepath.Join(s.dir, id), 0o755)
		if err == nil {
			meta.ID = id
			return filepath.Join(s.dir, id), nil
		}
		if !os.IsExist(err) {
			return "", fmt.Errorf("runstore: %w", err)
		}
		id = fmt.Sprintf("%s-%d", base, n)
	}
}

// commit writes the run's meta.json and obs snapshot and appends the
// manifest line — the moment a run becomes visible to Runs/Resolve.
func (s *Store) commit(dir string, meta Meta) error {
	var sb strings.Builder
	if err := obs.Default.WriteJSON(&sb); err != nil {
		return fmt.Errorf("runstore: metrics snapshot: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, metricsFile), []byte(sb.String()), 0o644); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if err := writeJSONFile(filepath.Join(dir, metaFile), meta); err != nil {
		return err
	}
	line, err := json.Marshal(meta)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := os.OpenFile(filepath.Join(s.dir, manifestFile),
		os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if _, err := f.Write(line); err != nil {
		f.Close()
		return fmt.Errorf("runstore: %w", err)
	}
	return f.Close()
}

// abort removes a run directory that will never commit.
func (s *Store) abort(dir string) {
	if dir != "" {
		os.RemoveAll(dir)
	}
}

// Runs lists committed runs, oldest first (manifest order). Manifest
// lines whose run directory has been removed out-of-band are skipped.
func (s *Store) Runs() ([]Meta, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, manifestFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var out []Meta
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var m Meta
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			return nil, fmt.Errorf("runstore: manifest: %w", err)
		}
		if _, err := os.Stat(s.runDir(m.ID)); err != nil {
			continue
		}
		out = append(out, m)
	}
	return out, nil
}

// Resolve maps a user-supplied run reference to a manifest entry:
// "latest" (newest by timestamp, then id), an exact id, or a unique id
// prefix.
func (s *Store) Resolve(ref string) (Meta, error) {
	runs, err := s.Runs()
	if err != nil {
		return Meta{}, err
	}
	if len(runs) == 0 {
		return Meta{}, fmt.Errorf("runstore: store %s has no runs", s.dir)
	}
	if ref == "latest" {
		best := runs[0]
		for _, m := range runs[1:] {
			if m.Timestamp.After(best.Timestamp) ||
				(m.Timestamp.Equal(best.Timestamp) && m.ID > best.ID) {
				best = m
			}
		}
		return best, nil
	}
	var matches []Meta
	for _, m := range runs {
		if m.ID == ref {
			return m, nil
		}
		if strings.HasPrefix(m.ID, ref) {
			matches = append(matches, m)
		}
	}
	switch len(matches) {
	case 1:
		return matches[0], nil
	case 0:
		return Meta{}, fmt.Errorf("runstore: no run matches %q", ref)
	default:
		ids := make([]string, len(matches))
		for i, m := range matches {
			ids[i] = m.ID
		}
		return Meta{}, fmt.Errorf("runstore: %q is ambiguous: %s", ref, strings.Join(ids, ", "))
	}
}

// GC keeps the newest `keep` runs and deletes the rest, rewriting the
// manifest atomically. It returns the ids removed.
func (s *Store) GC(keep int) ([]string, error) {
	if keep < 0 {
		keep = 0
	}
	runs, err := s.Runs()
	if err != nil {
		return nil, err
	}
	sort.Slice(runs, func(i, j int) bool {
		if !runs[i].Timestamp.Equal(runs[j].Timestamp) {
			return runs[i].Timestamp.Before(runs[j].Timestamp)
		}
		return runs[i].ID < runs[j].ID
	})
	if len(runs) <= keep {
		return nil, nil
	}
	victims, kept := runs[:len(runs)-keep], runs[len(runs)-keep:]
	removed := make([]string, 0, len(victims))
	for _, m := range victims {
		if err := os.RemoveAll(s.runDir(m.ID)); err != nil {
			return removed, fmt.Errorf("runstore: %w", err)
		}
		removed = append(removed, m.ID)
	}
	var sb strings.Builder
	enc := json.NewEncoder(&sb)
	for _, m := range kept {
		if err := enc.Encode(m); err != nil {
			return removed, fmt.Errorf("runstore: %w", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := filepath.Join(s.dir, manifestFile+".tmp")
	if err := os.WriteFile(tmp, []byte(sb.String()), 0o644); err != nil {
		return removed, fmt.Errorf("runstore: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, manifestFile)); err != nil {
		return removed, fmt.Errorf("runstore: %w", err)
	}
	return removed, nil
}

// Summary is a scenario run's stored run-level totals.
type Summary struct {
	TotalVisits          int   `json:"total_visits"`
	TotalDisallowedBytes int64 `json:"total_disallowed_bytes"`
	TotalBlockedRequests int   `json:"total_blocked_requests"`
	// VerdictClasses counts tokens per verdict class name.
	VerdictClasses map[string]int `json:"verdict_classes,omitempty"`
	// SitesStored is the number of per-site plan lines in sites.ndjson;
	// 0 with SitesTruncated set means the population exceeded the cap.
	SitesStored    int  `json:"sites_stored"`
	SitesTruncated bool `json:"sites_truncated,omitempty"`
}

// DecisionMix is a loadgen run's semantic output: how the issued
// decisions split by action. Counts are deterministic for a seeded
// in-process workload; latency and throughput stay out (they belong to
// the bench.json attribution segment).
type DecisionMix struct {
	Issued int64  `json:"issued"`
	Allow  int64  `json:"allow"`
	Deny   int64  `json:"deny"`
	Block  int64  `json:"block"`
	Batch  int    `json:"batch"`
	Wire   string `json:"wire,omitempty"`
}

// TenantQuota is one tenant's gateway quota ledger line. The JSON shape
// mirrors internal/fleet's accounting exactly (the segment is written
// from a /v1/quotas response body), but the type is duplicated here so
// the store stays free of serving-layer imports.
type TenantQuota struct {
	Tenant    string `json:"tenant"`
	Granted   uint64 `json:"granted"`
	Throttled uint64 `json:"throttled"`
}

// QuotaAccounting is a gateway's end-of-run per-tenant quota ledger —
// the fleet-layer semantic segment. For a seeded workload against a
// fixed limiter spec the ledger is deterministic, so cross-run diffs
// surface tenant-mix shifts the way decisions.json surfaces action-mix
// shifts.
type QuotaAccounting struct {
	Rate    float64       `json:"rate"`
	Burst   float64       `json:"burst,omitempty"`
	Tenants []TenantQuota `json:"tenants"`
}

// ScenarioWriter persists one scenario run as the engine produces it.
// It implements scenario.Observer: pass it as TierOptions.Observer,
// then Close. Errors during observation are
// deferred to Close (the Observer interface returns none).
type ScenarioWriter struct {
	st   *Store
	dir  string
	meta Meta

	mf     *os.File
	mw     *bufio.Writer
	enc    *json.Encoder
	err    error
	months int
	done   bool
}

// BeginScenario allocates a run directory and returns its writer.
func (s *Store) BeginScenario(meta Meta) (*ScenarioWriter, error) {
	dir, err := s.begin(&meta)
	if err != nil {
		return nil, err
	}
	return &ScenarioWriter{st: s, dir: dir, meta: meta}, nil
}

// ID is the run id assigned at Begin.
func (w *ScenarioWriter) ID() string { return w.meta.ID }

// fail records the first error for Close to surface.
func (w *ScenarioWriter) fail(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// ObserveMonth appends one month line to the months segment.
func (w *ScenarioWriter) ObserveMonth(m scenario.MonthMetrics) {
	if w.err != nil {
		return
	}
	if w.mf == nil {
		f, err := os.Create(filepath.Join(w.dir, monthsFile))
		if err != nil {
			w.fail(err)
			return
		}
		w.mf = f
		w.mw = bufio.NewWriter(f)
		w.enc = json.NewEncoder(w.mw)
	}
	w.fail(w.enc.Encode(m))
	w.months++
}

// ObserveResult writes the run's spec, verdict table, summary, and
// per-site plan segments from the finished result.
func (w *ScenarioWriter) ObserveResult(r *scenario.Result) {
	if w.err != nil {
		return
	}
	w.done = true
	w.meta.Sites = r.Spec.Sites
	w.meta.Months = len(r.Months)
	w.meta.Visits = r.TotalVisits

	w.fail(writeJSONFile(filepath.Join(w.dir, specFile), r.Spec))

	verdicts := make(map[string]string, len(r.Verdicts))
	classes := make(map[string]int)
	for tok, v := range r.Verdicts {
		verdicts[tok] = v.String()
		classes[v.String()]++
	}
	w.fail(writeJSONFile(filepath.Join(w.dir, verdictsFile), verdicts))

	sum := Summary{
		TotalVisits:          r.TotalVisits,
		TotalDisallowedBytes: r.TotalDisallowedBytes,
		TotalBlockedRequests: r.TotalBlockedRequests,
		VerdictClasses:       classes,
	}
	if r.Spec.Sites <= maxSitePlans {
		plans, err := scenario.SitePlans(r.Spec)
		if err != nil {
			w.fail(err)
			return
		}
		w.fail(writeNDJSONFile(filepath.Join(w.dir, sitesFile), func(enc *json.Encoder) error {
			for _, p := range plans {
				if err := enc.Encode(p); err != nil {
					return err
				}
			}
			return nil
		}))
		sum.SitesStored = len(plans)
	} else {
		sum.SitesTruncated = true
	}
	w.fail(writeJSONFile(filepath.Join(w.dir, summaryFile), sum))
}

// Close flushes the segments and commits the run to the manifest. If
// the run never finished (no ObserveResult) or any write failed, the
// run directory is removed instead and the first error returned.
func (w *ScenarioWriter) Close() error {
	if w.mw != nil {
		w.fail(w.mw.Flush())
		w.fail(w.mf.Close())
	}
	if !w.done && w.err == nil {
		w.err = fmt.Errorf("runstore: run %s never finalized", w.meta.ID)
	}
	if w.err != nil {
		w.st.abort(w.dir)
		return w.err
	}
	if err := w.st.commit(w.dir, w.meta); err != nil {
		w.st.abort(w.dir)
		return err
	}
	return nil
}

// Abort discards the run directory without committing.
func (w *ScenarioWriter) Abort() {
	if w.mw != nil {
		w.mf.Close()
		w.mf, w.mw = nil, nil
	}
	w.st.abort(w.dir)
	w.err = fmt.Errorf("runstore: run %s aborted", w.meta.ID)
}

// ExperimentsWriter persists a core experiment run as an NDJSON segment.
// It implements core.Sink, so it can tee alongside any user-facing sink:
// results arrive in deterministic registration order, making the
// segment byte-stable across re-runs.
type ExperimentsWriter struct {
	st   *Store
	dir  string
	meta Meta
	f    *os.File
	bw   *bufio.Writer
	enc  *json.Encoder
	err  error
}

var _ core.Sink = (*ExperimentsWriter)(nil)

// BeginExperiments allocates a run directory for an experiment run.
func (s *Store) BeginExperiments(meta Meta) (*ExperimentsWriter, error) {
	dir, err := s.begin(&meta)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(filepath.Join(dir, experimentsFile))
	if err != nil {
		s.abort(dir)
		return nil, fmt.Errorf("runstore: %w", err)
	}
	bw := bufio.NewWriter(f)
	return &ExperimentsWriter{st: s, dir: dir, meta: meta, f: f, bw: bw, enc: json.NewEncoder(bw)}, nil
}

// ID is the run id assigned at Begin.
func (w *ExperimentsWriter) ID() string { return w.meta.ID }

// Emit appends one experiment result line.
func (w *ExperimentsWriter) Emit(res *core.Result) error {
	if w.err != nil {
		return w.err
	}
	if err := w.enc.Encode(res); err != nil {
		w.err = err
		return err
	}
	w.meta.Records++
	return nil
}

// Close flushes the segment and commits the run.
func (w *ExperimentsWriter) Close() error {
	if ferr := w.bw.Flush(); w.err == nil {
		w.err = ferr
	}
	if cerr := w.f.Close(); w.err == nil {
		w.err = cerr
	}
	if w.err != nil {
		w.st.abort(w.dir)
		return w.err
	}
	if err := w.st.commit(w.dir, w.meta); err != nil {
		w.st.abort(w.dir)
		return err
	}
	return nil
}

// Abort discards the run directory without committing.
func (w *ExperimentsWriter) Abort() {
	w.f.Close()
	w.st.abort(w.dir)
	w.err = fmt.Errorf("runstore: run %s aborted", w.meta.ID)
}

// SaveLoadgen stores a loadgen run: the semantic decision mix, the
// gateway's per-tenant quota ledger as a second semantic segment
// (quotas.json; nil for runs that drove no gateway), and an optional
// performance snapshot (attribution segment, used for advisory bench
// deltas).
func (s *Store) SaveLoadgen(meta Meta, mix DecisionMix, quotas *QuotaAccounting, bench []byte) (string, error) {
	meta.Records = int(mix.Issued)
	dir, err := s.begin(&meta)
	if err != nil {
		return "", err
	}
	if err := writeJSONFile(filepath.Join(dir, decisionsFile), mix); err != nil {
		s.abort(dir)
		return "", err
	}
	if quotas != nil {
		if err := writeJSONFile(filepath.Join(dir, quotasFile), quotas); err != nil {
			s.abort(dir)
			return "", err
		}
	}
	if len(bench) > 0 {
		if err := os.WriteFile(filepath.Join(dir, benchFile), bench, 0o644); err != nil {
			s.abort(dir)
			return "", fmt.Errorf("runstore: %w", err)
		}
	}
	if err := s.commit(dir, meta); err != nil {
		s.abort(dir)
		return "", err
	}
	return meta.ID, nil
}

// writeJSONFile writes indented, key-sorted JSON (json.Marshal sorts
// map keys; struct fields keep declaration order) with a trailing
// newline — the deterministic segment encoding.
func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

// writeNDJSONFile streams records through a buffered encoder.
func writeNDJSONFile(path string, fill func(*json.Encoder) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := fill(json.NewEncoder(bw)); err != nil {
		f.Close()
		return fmt.Errorf("runstore: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("runstore: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}
