package runstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/scenario"
)

// ExperimentRecord is one stored experiment result: its id plus the raw
// NDJSON line, compared byte-for-byte by the differ.
type ExperimentRecord struct {
	ID  string
	Raw json.RawMessage
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
// (e.g. checked-in golden) directory.
func LoadRunDir(dir string) (*Run, error) {
	r := &Run{Dir: dir}
	if err := readJSONFile(filepath.Join(dir, metaFile), &r.Meta); err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("runstore: %s is not a run directory (no %s)", dir, metaFile)
		}
		return nil, err
	}

	var spec scenario.Spec
	switch err := readJSONFile(filepath.Join(dir, specFile), &spec); {
	case err == nil:
		r.Spec = &spec
	case !os.IsNotExist(err):
		return nil, err
	}
	if err := readNDJSONFile(filepath.Join(dir, monthsFile), func(line []byte) error {
		var m scenario.MonthMetrics
		if err := json.Unmarshal(line, &m); err != nil {
			return err
		}
		r.Months = append(r.Months, m)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := readJSONFile(filepath.Join(dir, verdictsFile), &r.Verdicts); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	if err := readNDJSONFile(filepath.Join(dir, sitesFile), func(line []byte) error {
		var p scenario.SitePlan
		if err := json.Unmarshal(line, &p); err != nil {
			return err
		}
		r.Sites = append(r.Sites, p)
		return nil
	}); err != nil {
		return nil, err
	}
	var sum Summary
	switch err := readJSONFile(filepath.Join(dir, summaryFile), &sum); {
	case err == nil:
		r.Summary = &sum
	case !os.IsNotExist(err):
		return nil, err
	}

	if err := readNDJSONFile(filepath.Join(dir, experimentsFile), func(line []byte) error {
		var idOnly struct {
			ID string `json:"ID"`
		}
		if err := json.Unmarshal(line, &idOnly); err != nil {
			return err
		}
		r.Experiments = append(r.Experiments,
			ExperimentRecord{ID: idOnly.ID, Raw: append(json.RawMessage(nil), line...)})
		return nil
	}); err != nil {
		return nil, err
	}
	var mix DecisionMix
	switch err := readJSONFile(filepath.Join(dir, decisionsFile), &mix); {
	case err == nil:
		r.Decisions = &mix
	case !os.IsNotExist(err):
		return nil, err
	}
	var quotas QuotaAccounting
	switch err := readJSONFile(filepath.Join(dir, quotasFile), &quotas); {
	case err == nil:
		r.Quotas = &quotas
	case !os.IsNotExist(err):
		return nil, err
	}
	var bench struct {
		Benchmarks map[string]BenchEntry `json:"benchmarks"`
	}
	switch err := readJSONFile(filepath.Join(dir, benchFile), &bench); {
	case err == nil:
		r.Bench = bench.Benchmarks
	case !os.IsNotExist(err):
		return nil, err
	}

	if data, err := os.ReadFile(filepath.Join(dir, metricsFile)); err == nil {
		r.Metrics = data
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return r, nil
}

// readJSONFile decodes one JSON segment; missing files pass the
// os.IsNotExist error through for the caller to treat as "segment
// absent".
func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("runstore: %s: %w", filepath.Base(path), err)
	}
	return nil
}

// readNDJSONFile streams an NDJSON segment line by line; a missing file
// is "segment absent", not an error.
func readNDJSONFile(path string, line func([]byte) error) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if err := line([]byte(text)); err != nil {
			return fmt.Errorf("runstore: %s: %w", filepath.Base(path), err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("runstore: %s: %w", filepath.Base(path), err)
	}
	return nil
}
