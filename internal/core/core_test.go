package core

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"figure2", "figure3", "figure4", "table1", "table2", "table3",
		"table4", "survey-demographics", "survey-headline", "survey-codebook",
		"noai-meta", "active-assistants", "active-blocking",
		"cloudflare-greybox", "figure7", "robots-lint",
		"ablation-parsers", "ablation-detector", "maintenance-gap",
		"scenario-baseline", "scenario-adoption", "scenario-rogue",
		"scenario-manager", "policy-service-throughput",
	}
	exps := Experiments()
	if len(exps) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(exps), len(want))
	}
	for i, id := range want {
		if exps[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, exps[i].ID, id)
		}
		if exps[i].Title == "" || exps[i].Run == nil {
			t.Errorf("%s: incomplete registration", id)
		}
	}
	if _, ok := byID("figure2"); !ok {
		t.Error("ByID must find figure2")
	}
	if _, ok := byID("nonsense"); ok {
		t.Error("ByID must reject unknown ids")
	}
}

func TestAllExperimentsRunAtQuickScale(t *testing.T) {
	cfg := QuickConfig()
	cfg.Seed = 31
	env := NewEnv(cfg)
	ctx := context.Background()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(ctx, env)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if res.ID != e.ID {
				t.Errorf("result ID %q != experiment ID %q", res.ID, e.ID)
			}
			if len(res.Sections) == 0 {
				t.Errorf("%s: empty result", e.ID)
			}
			var buf bytes.Buffer
			if err := render(&buf, res); err != nil {
				t.Fatalf("render: %v", err)
			}
			out := buf.String()
			if !strings.Contains(out, e.ID) {
				t.Errorf("rendered output missing experiment id:\n%s", out)
			}
			if len(out) < 80 {
				t.Errorf("%s: suspiciously short output:\n%s", e.ID, out)
			}
		})
	}
}

func TestRenderTableAlignment(t *testing.T) {
	res := &Result{
		ID:    "demo",
		Title: "demo",
		Sections: []Section{{
			Heading: "section",
			Table: &Table{
				Headers: []string{"col", "value"},
				Rows:    [][]string{{"short", "1"}, {"much-longer-cell", "22"}},
			},
			Notes: []string{"a note"},
		}},
	}
	var buf bytes.Buffer
	if err := render(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"col", "much-longer-cell", "note: a note", "section"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Header separator present.
	if !strings.Contains(out, "---") {
		t.Error("missing header separator")
	}
}

func TestCacheReuse(t *testing.T) {
	ctx := context.Background()
	cfg := QuickConfig()
	cfg.Seed = 32
	cfg.Scale = 0.03
	env := NewEnv(cfg)
	r1, err := env.Longitudinal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := env.Longitudinal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical configs must hit the cache")
	}
	cfg2 := cfg
	cfg2.Seed = 33
	r3, err := NewEnv(cfg2).Longitudinal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Fatal("separate environments must not share cache entries")
	}
}

func TestDefaultAndQuickConfigs(t *testing.T) {
	d := DefaultConfig()
	if d.Scale != 1.0 || d.BlockingSites != 10_000 || d.CloudflareSites != 2_018 {
		t.Fatalf("default config = %+v", d)
	}
	q := QuickConfig()
	if q.Scale >= d.Scale || q.BlockingSites >= d.BlockingSites {
		t.Fatal("quick config must be smaller than default")
	}
}

func TestRenderMarkdown(t *testing.T) {
	res := &Result{
		ID: "demo", Title: "demo title",
		Sections: []Section{{
			Heading: "sec",
			Table: &Table{
				Headers: []string{"a", "b|pipe"},
				Rows:    [][]string{{"1", "x|y"}, {"2"}},
			},
			Notes: []string{"a note"},
		}},
	}
	var buf bytes.Buffer
	if err := renderMarkdown(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"## demo — demo title", "### sec", "| a | b\\|pipe |",
		"| --- | --- |", "| 1 | x\\|y |", "| 2 |  |", "> a note",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown missing %q:\n%s", want, out)
		}
	}
}

func TestRenderRaggedRow(t *testing.T) {
	res := &Result{
		ID: "demo", Title: "demo",
		Sections: []Section{{Table: &Table{
			Headers: []string{"a", "b"},
			Rows:    [][]string{{"1", "2", "EXTRA"}, {"3"}},
		}}},
	}
	var buf bytes.Buffer
	if err := render(&buf, res); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "EXTRA") {
		t.Errorf("cells beyond the header count must be dropped:\n%s", out)
	}
	if !strings.Contains(out, "1") || !strings.Contains(out, "3") {
		t.Errorf("in-bounds cells missing:\n%s", out)
	}
}
