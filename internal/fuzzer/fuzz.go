package fuzzer

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/exp"
	"repro/internal/scenario"
)

// Options bounds one fuzzing campaign.
type Options struct {
	// Seed keys the campaign: spec i is Gen(Seed, i).
	Seed uint64
	// Iterations is the number of generated specs to check.
	Iterations int
	// OutDir, when non-empty, receives the shrunk repro spec (JSON) and
	// its divergence report; the directory is created if missing.
	// examples/regressions/ is the ready-to-commit location.
	OutDir string
	// Log, when non-nil, receives one progress line per checked spec
	// batch and the shrink trajectory of a failure.
	Log func(format string, args ...any)
}

// Each spec is checked single-kernel against these federated partition
// counts, and each federated run is repeated under these GOMAXPROCS
// values: 1 (serialized), then 0 (ambient, left untouched), so both the
// single-threaded and the parallel coordinator paths face every spec.
// Neither slice is ever modified.
var (
	partitionCounts = []int{2, 3}
	gomaxprocs      = []int{1, 0}
)

// shrinkBudget caps candidate evaluations while shrinking a failure.
const shrinkBudget = 64

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		o.Log(format, args...)
	}
}

// Failure is a determinism violation found (and minimized) by Run.
type Failure struct {
	// Index is the generator index of the spec that first diverged;
	// Gen(Options.Seed, Index) regenerates it exactly.
	Index uint64
	// Spec is the originally generated diverging spec.
	Spec scenario.Spec
	// Minimal is the shrunk spec: the smallest found that still
	// reproduces the divergence. Its Partitions field holds the
	// (also minimized) failing partition count, so running it as a
	// JSON scenario re-executes the failing comparison directly.
	Minimal scenario.Spec
	// Div is the minimal spec's divergence, trace-localized when the
	// canonical traces disagree.
	Div *exp.ModeDivergence
	// Report is the rendered repro report (also written to ReportPath
	// when OutDir was set).
	Report string
	// SpecPath and ReportPath are the emitted repro files (empty when
	// OutDir was unset).
	SpecPath, ReportPath string
}

// Error renders the failure as a one-paragraph summary for test and
// CLI output.
func (f *Failure) Error() string {
	return fmt.Sprintf("fuzzer: determinism violation at index %d (spec %s): %s",
		f.Index, f.Minimal.Name, strings.Split(f.Div.String(), "\n")[1])
}

// Run executes a seeded campaign: Iterations generated specs, each
// checked single-kernel vs federated across partitionCounts × gomaxprocs.
// The first violation is shrunk to a minimal repro, emitted under
// OutDir (when set) and returned; a clean campaign returns (nil, nil).
// The error return is reserved for infrastructure failures (a
// generated spec failing to build is a generator bug, not a finding).
func Run(o Options) (*Failure, error) {
	for i := uint64(0); i < uint64(o.Iterations); i++ {
		spec := Gen(o.Seed, i)
		_, div, err := exp.CompareSpecModes(spec, partitionCounts, gomaxprocs)
		if err != nil {
			return nil, fmt.Errorf("fuzzer: generated spec %d failed to run: %w", i, err)
		}
		if div == nil {
			if (i+1)%10 == 0 || int(i+1) == o.Iterations {
				o.logf("fuzzer: %d/%d specs upheld the determinism contract (seed %d)",
					i+1, o.Iterations, o.Seed)
			}
			continue
		}
		o.logf("fuzzer: spec %d (%s) DIVERGED at %d partitions — shrinking", i, spec.Name, div.Partitions)
		return minimize(o, i, spec, div)
	}
	return nil, nil
}

// minimize shrinks a diverging spec against the exact mode that caught
// it, renders the repro report and emits the artifacts.
func minimize(o Options, index uint64, spec scenario.Spec, div *exp.ModeDivergence) (*Failure, error) {
	// Pin the failing mode into the spec: the shrinker halves
	// Partitions like any other field, and the emitted JSON then
	// carries the minimized failing partition count.
	spec.Partitions = div.Partitions
	procs := []int{div.Procs}
	reproduces := func(cand scenario.Spec) (bool, error) {
		_, d, err := exp.CompareSpecModes(cand, []int{cand.Partitions}, procs)
		return d != nil, err
	}
	minimal := Shrink(spec, reproduces, shrinkBudget)
	_, minDiv, err := exp.CompareSpecModes(minimal, []int{minimal.Partitions}, procs)
	if err != nil {
		return nil, err
	}
	if minDiv == nil {
		// The bug is flaky enough that the minimal spec missed on the
		// confirmation run; the pre-shrink spec is still the finding.
		minDiv = div
		minimal = spec
	}
	o.logf("fuzzer: shrunk %d→%d platforms, %d→%d rounds", spec.Platforms, minimal.Platforms,
		spec.Rounds, minimal.Rounds)

	f := &Failure{Index: index, Spec: spec, Minimal: minimal, Div: minDiv}
	f.Report = renderReport(o.Seed, f)
	if o.OutDir != "" {
		if err := emit(o.OutDir, f); err != nil {
			return nil, err
		}
		o.logf("fuzzer: repro written: %s, %s", f.SpecPath, f.ReportPath)
	}
	return f, nil
}

// renderReport builds the human-readable half of a repro: provenance,
// the minimal spec's canonical description, and the localized
// divergence with both reports.
func renderReport(seed uint64, f *Failure) string {
	var b strings.Builder
	fmt.Fprintf(&b, "determinism violation found by the spec fuzzer\n")
	fmt.Fprintf(&b, "campaign seed=%d index=%d (regenerate: fuzzer.Gen(%d, %d))\n\n",
		seed, f.Index, seed, f.Index)
	if desc, err := scenario.Describe(f.Minimal); err == nil {
		fmt.Fprintf(&b, "minimal spec:\n%s\n", desc)
	}
	b.WriteString(f.Div.String())
	return b.String()
}

// emit writes the minimal spec and its report under dir, named after
// the spec. The JSON is ready to commit: checking it into
// examples/regressions/ turns the repro into a permanent gate (the
// regression replay test runs every spec in that directory).
func emit(dir string, f *Failure) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("fuzzer: creating repro dir: %w", err)
	}
	data, err := scenario.MarshalJSONSpec(f.Minimal)
	if err != nil {
		return fmt.Errorf("fuzzer: marshaling repro spec: %w", err)
	}
	f.SpecPath = filepath.Join(dir, f.Minimal.Name+".json")
	if err := os.WriteFile(f.SpecPath, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("fuzzer: writing repro spec: %w", err)
	}
	f.ReportPath = filepath.Join(dir, f.Minimal.Name+".report.txt")
	if err := os.WriteFile(f.ReportPath, []byte(f.Report), 0o644); err != nil {
		return fmt.Errorf("fuzzer: writing repro report: %w", err)
	}
	return nil
}
