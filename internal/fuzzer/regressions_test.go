package fuzzer

import (
	"testing"

	"repro/internal/exp"
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
