package fuzzer

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/scenario"
)

// regressionsDir is the committed home of fuzzer-found minimal repro
// specs. It starts empty; every divergence the fuzzer finds (and a
// human fixes) leaves its shrunk spec here as a permanent gate.
const regressionsDir = "../../examples/regressions"

// TestRegressionSpecs replays every committed repro spec: each one
// once exposed a determinism violation, so after the fix it must
// uphold the byte-equality contract forever. A spec that diverges
// again is a regression of the exact bug it was minimized from.
func TestRegressionSpecs(t *testing.T) {
	specs, err := LoadDir(regressionsDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) == 0 {
		t.Log("no committed regression specs yet — the directory fills as the fuzzer finds real divergences")
		return
	}
	for _, ns := range specs {
		parts := []int{2, 3}
		if p := ns.Spec.Partitions; p > 1 {
			// Emitted repros carry the partition count that diverged;
			// replay exactly that mode.
			parts = []int{p}
		}
		_, div, err := exp.CompareSpecModes(ns.Spec, parts, nil)
		if err != nil {
			t.Errorf("%s: failed to run: %v", ns.Path, err)
			continue
		}
		if div != nil {
			t.Errorf("%s: determinism regression reproduced:\n%s", ns.Path, div)
		}
	}
}

// NamedSpec is a spec loaded from a directory of JSON scenario files.
type NamedSpec struct {
	// Path is the file the spec was parsed from.
	Path string
	// Spec is the parsed (unnormalized) spec.
	Spec scenario.Spec
}

// LoadDir parses every *.json file under dir as a scenario spec,
// sorted by file name. Non-JSON files (the directory README, emitted
// *.report.txt divergence reports) are ignored; a JSON file that fails
// to parse or validate is an error — a committed repro must stay
// runnable. A missing or empty directory yields an empty slice: the
// regressions directory starts empty and fills as the fuzzer finds
// (and a human commits) real divergences.
func LoadDir(dir string) ([]NamedSpec, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("fuzzer: reading spec dir: %w", err)
	}
	var specs []NamedSpec
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		spec, err := scenario.ParseSpec(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if _, err := spec.Normalized(); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		specs = append(specs, NamedSpec{Path: path, Spec: spec})
	}
	sort.Slice(specs, func(i, j int) bool { return specs[i].Path < specs[j].Path })
	return specs, nil
}
