package reactor

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"repro/internal/logical"
)

// buildDiamond: src feeds two same-level workers (w1, w2) that both feed
// a join, so every tag runs two reactions of different reactors at one
// level.
func buildDiamond(env *Environment) {
	src := env.NewReactor("src")
	w1 := env.NewReactor("w1")
	w2 := env.NewReactor("w2")
	join := env.NewReactor("join")
	srcOut := NewOutputPort[int](src, "out")
	w1In := NewInputPort[int](w1, "in")
	w2In := NewInputPort[int](w2, "in")
	w1Out := NewOutputPort[int](w1, "out")
	w2Out := NewOutputPort[int](w2, "out")
	j1 := NewInputPort[int](join, "in1")
	j2 := NewInputPort[int](join, "in2")
	Connect(srcOut, w1In)
	Connect(srcOut, w2In)
	Connect(w1Out, j1)
	Connect(w2Out, j2)
	timer := NewTimer(src, "t", 0, logical.Duration(10*ms))
	n := 0
	src.AddReaction("emit").Triggers(timer).Effects(srcOut).Do(func(c *Ctx) {
		n++
		srcOut.Set(c, n)
	})
	w1.AddReaction("f").Triggers(w1In).Effects(w1Out).Do(func(c *Ctx) {
		v, _ := w1In.Get(c)
		w1Out.Set(c, v+1)
	})
	w2.AddReaction("g").Triggers(w2In).Effects(w2Out).Do(func(c *Ctx) {
		v, _ := w2In.Get(c)
		w2Out.Set(c, v*2)
	})
	join.AddReaction("join").Triggers(j1, j2).Do(func(c *Ctx) {})
}

// TestReactorSchedulePinned pins the scheduler's reaction order, across
// reactors at one level as well as across levels and tags: the trace-hook
// stream (tag, reaction, level) of the diamond and of fixed random
// pipelines, run under a SimClock, is folded into an FNV-64a digest. The
// literals were captured from the scheduler that bucketed and sorted
// reactions per level on every tag; any change to the precedence order
// moves a digest or a count.
func TestReactorSchedulePinned(t *testing.T) {
	digest := func(trace []string) uint64 {
		h := fnv.New64a()
		for _, s := range trace {
			io.WriteString(h, s)
			h.Write([]byte{0})
		}
		return h.Sum64()
	}
	check := func(name string, trace []string, want uint64, wantLen int) {
		t.Helper()
		if got := digest(trace); got != want || len(trace) != wantLen {
			t.Errorf("%s: digest=%#x events=%d, want %#x %d", name, got, len(trace), want, wantLen)
		}
	}
	check("diamond", runOnKernel(t, 1, buildDiamond, logical.Duration(100*ms)), 0x0a1db48ed6acaaf2, 44)

	for i, c := range []struct {
		spec    programSpec
		want    uint64
		wantLen int
	}{
		{programSpec{Stages: 4, Period: 0, WorkUS: [6]uint16{0, 100, 200, 0, 300, 0}, Horizon: 2, KernSeed: 1}, 0x2e99bf8df40c204d, 36},
		{programSpec{Stages: 2, Delays: [6]uint16{0, 250, 0, 120}, Period: 15, WorkUS: [6]uint16{0, 700, 50}, Horizon: 5, KernSeed: 7}, 0xe46e4c8945f82b6b, 34},
		{programSpec{Stages: 3, Delays: [6]uint16{499, 0, 0, 1}, Period: 3, WorkUS: [6]uint16{0, 0, 799, 10, 0}, KernSeed: 42}, 0x1a40866cdde6f270, 16},
	} {
		trace, err := runRandomProgram(c.spec)
		if err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		check(fmt.Sprintf("spec %d", i), trace, c.want, c.wantLen)
	}
}

// TestReactorTagAllocs bounds the scheduler's garbage per tag on a
// logical-action chain (perfbench's reactor.tag program): the difference
// between runs of n and n+10k tags, so setup cost cancels. What remains
// per tag is the fire closure; the queue holds events by value.
func TestReactorTagAllocs(t *testing.T) {
	chain := func(n int) func() {
		return func() {
			env := NewEnvironment(Options{Fast: true})
			r := env.NewReactor("chain")
			act := NewLogicalAction[int](r, "a", logical.Nanosecond)
			r.AddReaction("kick").Triggers(r.Startup()).Effects(act).Do(func(c *Ctx) {
				act.Schedule(c, 1, 0)
			})
			r.AddReaction("loop").Triggers(act).Effects(act).Do(func(c *Ctx) {
				if v, _ := act.Get(c); v < n {
					act.Schedule(c, v+1, 0)
				}
			})
			if err := env.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	const extra = 10000
	base := testing.AllocsPerRun(3, chain(100))
	more := testing.AllocsPerRun(3, chain(100+extra))
	// The slack absorbs a stray runtime allocation over the 10k tags.
	if perTag := (more - base) / extra; perTag > 1.01 {
		t.Errorf("%.2f allocations per tag, want <= 1", perTag)
	}
}
