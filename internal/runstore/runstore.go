package runstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
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
// multi-megabyte sites.ndjson.
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

// SaveScenario stores a finished scenario run: its spec, the merged
// months, the verdict table, run-level totals, and (up to maxSitePlans
// sites) every site's policy plan.
func (s *Store) SaveScenario(meta Meta, r *scenario.Result) (string, error) {
	meta.Sites, meta.Months, meta.Visits = r.Spec.Sites, len(r.Months), r.TotalVisits
	verdicts := make(map[string]string, len(r.Verdicts))
	sum := Summary{
		TotalVisits:          r.TotalVisits,
		TotalDisallowedBytes: r.TotalDisallowedBytes,
		TotalBlockedRequests: r.TotalBlockedRequests,
		VerdictClasses:       make(map[string]int),
	}
	for tok, v := range r.Verdicts {
		verdicts[tok] = v.String()
		sum.VerdictClasses[v.String()]++
	}
	var plans []scenario.SitePlan
	if r.Spec.Sites <= maxSitePlans {
		var err error
		if plans, err = scenario.SitePlans(r.Spec); err != nil {
			return "", err
		}
		sum.SitesStored = len(plans)
	} else {
		sum.SitesTruncated = true
	}
	return s.save(meta, func(w *segWriter) {
		w.json(specFile, r.Spec)
		ndjson(w, monthsFile, r.Months)
		w.json(verdictsFile, verdicts)
		if !sum.SitesTruncated {
			ndjson(w, sitesFile, plans)
		}
		w.json(summaryFile, sum)
	})
}

// SaveExperiments stores a finished core experiment run, one NDJSON
// line per result in the order given — RunAll's registration order,
// which makes the segment byte-stable across re-runs.
func (s *Store) SaveExperiments(meta Meta, results []*core.Result) (string, error) {
	meta.Records = len(results)
	return s.save(meta, func(w *segWriter) { ndjson(w, experimentsFile, results) })
}

// SaveLoadgen stores a loadgen run: the semantic decision mix, the
// gateway's per-tenant quota ledger as a second semantic segment
// (quotas.json; nil for runs that drove no gateway), and an optional
// performance snapshot (attribution segment, used for advisory bench
// deltas).
func (s *Store) SaveLoadgen(meta Meta, mix DecisionMix, quotas *QuotaAccounting, bench []byte) (string, error) {
	meta.Records = int(mix.Issued)
	return s.save(meta, func(w *segWriter) {
		w.json(decisionsFile, mix)
		if quotas != nil {
			w.json(quotasFile, quotas)
		}
		if len(bench) > 0 {
			w.write(benchFile, func(out io.Writer) error {
				_, err := out.Write(bench)
				return err
			})
		}
	})
}

// save writes one finished run: it allocates the run directory, lets
// fill write the kind's segments, then commits — metrics.json (the obs
// snapshot), meta.json, and the manifest line, the moment the run
// becomes visible to Runs/Resolve. On any error the directory is
// removed and the first error returned.
func (s *Store) save(meta Meta, fill func(*segWriter)) (string, error) {
	dir, err := s.begin(&meta)
	if err != nil {
		return "", err
	}
	w := &segWriter{dir: dir}
	fill(w)
	w.write(metricsFile, func(out io.Writer) error { return obs.Default.WriteJSON(out) })
	w.json(metaFile, meta)
	if w.err == nil {
		s.mu.Lock()
		w.open(filepath.Join(s.dir, manifestFile), os.O_APPEND, func(out io.Writer) error {
			return json.NewEncoder(out).Encode(meta)
		})
		s.mu.Unlock()
	}
	if w.err != nil {
		os.RemoveAll(dir)
		return "", w.err
	}
	return meta.ID, nil
}

// segWriter writes one run's files, keeping the first error: after a
// failed write every later one is skipped.
type segWriter struct {
	dir string
	err error
}

// open opens path with flag (os.O_TRUNC or os.O_APPEND), creating it if
// needed, and lets fill write it through a buffer.
func (w *segWriter) open(path string, flag int, fill func(io.Writer) error) {
	if w.err != nil {
		return
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|flag, 0o644)
	if err != nil {
		w.err = fmt.Errorf("runstore: %w", err)
		return
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = fill(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		w.err = fmt.Errorf("runstore: %s: %w", filepath.Base(path), err)
	}
}

// write writes one segment of the run directory.
func (w *segWriter) write(name string, fill func(io.Writer) error) {
	w.open(filepath.Join(w.dir, name), os.O_TRUNC, fill)
}

// json writes v as indented, key-sorted JSON (json.Marshal sorts map
// keys; struct fields keep declaration order) with a trailing newline —
// the deterministic encoding of a single-value segment.
func (w *segWriter) json(name string, v any) {
	w.write(name, func(out io.Writer) error {
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		_, err = out.Write(append(data, '\n'))
		return err
	})
}

// ndjson writes one JSON line per record.
func ndjson[T any](w *segWriter, name string, recs []T) {
	w.write(name, func(out io.Writer) error {
		enc := json.NewEncoder(out)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				return err
			}
		}
		return nil
	})
}
