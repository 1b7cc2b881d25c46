package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/monitor"
)

// noisePinDigests are the SHA-256 digests of the noisy world's runs,
// by partition count. A change that alters any noise send, tick or
// their order against the rest of the schedule changes a digest.
// Regenerate only for a deliberate behaviour change, never for a
// refactor.
var noisePinDigests = map[int]string{
	1: "0f1fb0cffc88c2812cfb39e936cc435f9247f6e3aa86ecd4daedd9282414c90a",
	2: "9db1697db7a2a02a1c66592cf4cbedb9baa97d1536744529733aa3d83ec2f736",
}

// noisePinSpec is a small monitored mesh whose noise generators run
// through a crash and restart of platform 1: the crashed platform's
// remaining sends are suppressed while its ticks go on. The noise
// period equals the loopback latency, so every delivery ties with its
// generator's next tick and the firing order of the two is visible to
// firedStamp.
func noisePinSpec(partitions int) Spec {
	spec := MeshPreset(6)
	spec.Seed = 5
	spec.Rounds = 4
	spec.NoiseEvents = 1000
	spec.NoiseInterval = 5 * logical.Microsecond
	spec.CallTimeout = 6 * logical.Millisecond
	spec.Crash = &CrashPlan{
		Platform:     1,
		At:           logical.Time(1500 * logical.Microsecond),
		RestartAt:    logical.Time(3 * logical.Millisecond),
		RebornRounds: 2,
	}
	spec.Monitors = DefaultMonitors(spec)
	spec.Partitions = partitions
	return spec
}

// firedStamp sits between a kernel and its recorder and folds the
// kernel's fired-event count at every trace call into a digest: on a
// single kernel that count is the traced event's position in the
// schedule, so two events that swap places change it even when they
// commute.
type firedStamp struct {
	next des.Tracer
	k    *des.Kernel
	sum  hash.Hash
}

func (s *firedStamp) Component(name string) uint32 { return s.next.Component(name) }

func (s *firedStamp) TraceID(at logical.Time, comp uint32, kind string, payload []byte) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], s.k.EventsFired())
	s.sum.Write(b[:])
	s.next.TraceID(at, comp, kind, payload)
}

// noisePinRun runs the noisy world and digests its canonical outputs
// (report, encoded trace, verdict report), its fired-event total and,
// on a single kernel, the schedule position of every traced event.
func noisePinRun(t *testing.T, partitions int) string {
	t.Helper()
	w, err := Build(noisePinSpec(partitions))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if partitions == 1 {
		k := w.fed.Kernel(0)
		k.SetTracer(&firedStamp{next: w.recorders[0], k: k, sum: h})
	}
	w.Run()
	if err := w.TraceOverflow(); err != nil {
		t.Fatal(err)
	}
	for _, v := range w.Verdicts() {
		if v.Violations != 0 {
			t.Fatalf("noisy world tripped %s:\n%s", v.Monitor, monitor.Report(w.Verdicts()))
		}
	}
	fmt.Fprintf(h, "%s\n", StatsReport(w.Stats))
	h.Write(w.Trace().Encode())
	fmt.Fprintf(h, "%s\n", monitor.Report(w.Verdicts()))
	fmt.Fprintf(h, "%d\n", w.EventsFired())
	return hex.EncodeToString(h.Sum(nil))
}

// The noise generators' schedule is pinned on one kernel and on two
// partitions. The federated comparison perfbench runs cannot see a
// schedule change: both of its sides would move together.
func TestNoiseWorldMatchesPinnedDigests(t *testing.T) {
	for _, partitions := range []int{1, 2} {
		if got, want := noisePinRun(t, partitions), noisePinDigests[partitions]; got != want {
			t.Errorf("%d partitions: digest %s, want %s", partitions, got, want)
		}
	}
}
