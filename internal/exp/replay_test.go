package exp

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/trace"
)

// The E13 acceptance gate: a recorded loopback (real UDP) run replays
// in the simulator with matching outputs — the application is a pure
// function of its tagged inputs.
func TestReplayReproducesRecordedRun(t *testing.T) {
	if testing.Short() {
		t.Skip("uses real UDP sockets")
	}
	res, err := RunReplay(25, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Live.Completed != 25 {
		t.Fatalf("live run completed %d/25 round trips", res.Live.Completed)
	}
	if got := res.Recorded.Filter(trace.KindRecv).Len(); got != 25 {
		t.Fatalf("recorded %d inputs, want 25", got)
	}
	if got := res.Recorded.Filter(trace.KindSend).Len(); got != 25 {
		t.Fatalf("recorded %d outputs, want 25", got)
	}
	if !res.Match() {
		t.Fatalf("replay diverged: %s", res.Divergence)
	}
	if res.Replayed.Len() != res.Recorded.Len() {
		t.Fatalf("replayed %d events, recorded %d", res.Replayed.Len(), res.Recorded.Len())
	}
}

// A trace must survive the file round trip and still replay: the
// -trace / -replay CLI path in miniature.
func TestReplayFromTraceFile(t *testing.T) {
	if testing.Short() {
		t.Skip("uses real UDP sockets")
	}
	rec, live, err := RecordLoopback(10, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if live.Completed != 10 {
		t.Fatalf("live run completed %d/10", live.Completed)
	}
	path := filepath.Join(t.TempDir(), "run.trace")
	if err := trace.WriteFile(path, rec); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.FirstDivergence(rec, loaded); d != nil {
		t.Fatalf("trace changed across the file round trip: %s", d)
	}
	replayed, err := ReplaySimulated(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.FirstDivergence(rec.WithoutTimes(), replayed.WithoutTimes()); d != nil {
		t.Fatalf("replay of the loaded trace diverged: %s", d)
	}
}

// A corrupted input must change the replayed outputs — the gate is
// not vacuous: the replay actually recomputes from the inputs.
func TestReplayDetectsPerturbedInputs(t *testing.T) {
	if testing.Short() {
		t.Skip("uses real UDP sockets")
	}
	rec, _, err := RecordLoopback(5, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Re-record the stored inputs — all a replay reads — with one
	// payload byte of the first flipped (the last byte of a tagged
	// request's payload region sits before the trailer).
	// The same inputs re-recorded unchanged must replay identically, so
	// the divergence below comes from the flipped byte alone.
	clean, inputs := trace.NewRecorder(rec.Len()), trace.NewRecorder(rec.Len())
	found := false
	for i := 0; i < rec.Len(); i++ {
		r := rec.At(i)
		if r.Data == nil {
			continue
		}
		clean.RecordInput(r.Time, r.Component, r.Kind, r.Src, r.Data)
		data := r.Data
		if !found {
			data = append([]byte(nil), data...)
			data[16] ^= 0xff // first payload byte, after the 16-byte header
			found = true
		}
		inputs.RecordInput(r.Time, r.Component, r.Kind, r.Src, data)
	}
	if !found {
		t.Fatal("no stored input to perturb")
	}
	cleanReplay, err := ReplaySimulated(clean.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.FirstDivergence(rec.WithoutTimes(), cleanReplay.WithoutTimes()); d != nil {
		t.Fatalf("re-recorded inputs replayed differently: %s", d)
	}
	replayed, err := ReplaySimulated(inputs.Trace())
	if err != nil {
		t.Fatal(err)
	}
	if d := trace.FirstDivergence(rec.WithoutTimes(), replayed.WithoutTimes()); d == nil {
		t.Fatal("perturbed inputs replayed to identical outputs — the replay is not recomputing")
	}
}

// BenchmarkReplay measures the full E13 round trip (live UDP record +
// simulated replay); CI runs one iteration as a smoke test.
func BenchmarkReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := RunReplay(10, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Match() {
			b.Fatalf("replay diverged: %s", res.Divergence)
		}
	}
}
