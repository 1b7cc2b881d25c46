package scenario

import (
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/logical"
)

// regLog sits between a kernel and its recorder and logs every
// component registered through it.
type regLog struct {
	des.Tracer
	names []string
}

func (l *regLog) Component(name string) uint32 {
	l.names = append(l.names, name)
	return l.Tracer.Component(name)
}

// A platform reborn by the crash plan traces under the components its
// first incarnation registered at build: no component is registered
// again, no partition holds a name twice, and each of the platform's
// streams runs on with contiguous sequence numbers across the restart.
func TestRebornPlatformKeepsStreams(t *testing.T) {
	spec := MeshPreset(6)
	spec.Seed = 11
	spec.Rounds = 8
	spec.NoiseEvents = 100
	spec.CallTimeout = 6 * logical.Millisecond
	restart := logical.Time(4 * logical.Millisecond)
	spec.Crash = &CrashPlan{
		Platform:     1,
		At:           logical.Time(2 * logical.Millisecond),
		RestartAt:    restart,
		RebornRounds: 3,
	}
	spec.Partitions = 2
	w, err := Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Build registered each platform's labels once on its partition.
	for part := 0; part < w.Partitions(); part++ {
		var ids []uint32
		for i, c := range w.comps {
			if i%w.Partitions() == part {
				ids = append(ids, c.server, c.life, c.client, c.noise)
			}
		}
		n := len(ids)
		slices.Sort(ids)
		if n == 0 || len(slices.Compact(ids)) != n {
			t.Fatalf("partition %d: platforms share component ids %v", part, ids)
		}
	}
	regs := make([]*regLog, w.Partitions())
	for i, rec := range w.recorders {
		regs[i] = &regLog{Tracer: rec}
		w.fed.Kernel(i).SetTracer(regs[i])
	}
	w.Run()
	for i, r := range regs {
		if len(r.names) != 0 {
			t.Fatalf("partition %d registered components during the run: %v", i, r.names)
		}
	}

	tr := w.Trace()
	for _, label := range []string{".server", ".client", ".life"} {
		name := HostName(spec.Crash.Platform) + label
		var seqs []uint64
		before, after := 0, 0
		for j := 0; j < tr.Len(); j++ {
			r := tr.At(j)
			if r.Component != name {
				continue
			}
			seqs = append(seqs, r.Seq)
			if r.Time < restart {
				before++
			} else {
				after++
			}
		}
		if before == 0 || after == 0 {
			t.Fatalf("%s: %d records before the restart and %d after, want both", name, before, after)
		}
		slices.Sort(seqs)
		for k, s := range seqs {
			if s != uint64(k+1) {
				t.Fatalf("%s: sorted seqs %v are not 1..%d", name, seqs, len(seqs))
			}
		}
	}
}
