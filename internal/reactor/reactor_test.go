package reactor

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

const ms = logical.Millisecond

// fastEnv returns an environment that runs in fast mode on logical time.
func fastEnv(opts ...func(*Options)) *Environment {
	o := Options{Fast: true}
	for _, f := range opts {
		f(&o)
	}
	return NewEnvironment(o)
}

func TestStartupShutdownOrder(t *testing.T) {
	env := fastEnv()
	r := env.NewReactor("r")
	var trace []string
	r.AddReaction("start").Triggers(r.Startup()).Do(func(c *Ctx) {
		trace = append(trace, "startup")
	})
	r.AddReaction("stop").Triggers(r.Shutdown()).Do(func(c *Ctx) {
		trace = append(trace, "shutdown")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trace) != 2 || trace[0] != "startup" || trace[1] != "shutdown" {
		t.Errorf("trace = %v", trace)
	}
}

func TestTimerFiresPeriodically(t *testing.T) {
	env := fastEnv(func(o *Options) { o.Timeout = logical.Duration(100 * ms) })
	r := env.NewReactor("r")
	timer := NewTimer(r, "t", 0, logical.Duration(20*ms))
	var times []logical.Duration
	r.AddReaction("tick").Triggers(timer).Do(func(c *Ctx) {
		times = append(times, c.Elapsed())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	// Ticks at 0, 20, 40, 60, 80, 100 (timeout tag inclusive).
	if len(times) != 6 {
		t.Fatalf("ticks = %d (%v)", len(times), times)
	}
	for i, want := range []int64{0, 20, 40, 60, 80, 100} {
		if times[i] != logical.Duration(want)*ms {
			t.Errorf("tick %d at %v, want %dms", i, times[i], want)
		}
	}
}

func TestTimerOffset(t *testing.T) {
	env := fastEnv(func(o *Options) { o.Timeout = logical.Duration(50 * ms) })
	r := env.NewReactor("r")
	timer := NewTimer(r, "t", logical.Duration(15*ms), logical.Duration(20*ms))
	var times []logical.Duration
	r.AddReaction("tick").Triggers(timer).Do(func(c *Ctx) {
		times = append(times, c.Elapsed())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != logical.Duration(15*ms) || times[1] != logical.Duration(35*ms) {
		t.Errorf("ticks = %v", times)
	}
}

func TestOneShotTimer(t *testing.T) {
	env := fastEnv()
	r := env.NewReactor("r")
	timer := NewTimer(r, "t", logical.Duration(5*ms), 0)
	count := 0
	r.AddReaction("tick").Triggers(timer).Do(func(c *Ctx) { count++ })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Errorf("count = %d, want 1", count)
	}
}

func TestPortConnectionSameTag(t *testing.T) {
	env := fastEnv()
	src := env.NewReactor("src")
	dst := env.NewReactor("dst")
	out := NewOutputPort[int](src, "out")
	in := NewInputPort[int](dst, "in")
	Connect(out, in)
	var got []int
	var tags []logical.Tag
	var srcTag logical.Tag
	src.AddReaction("emit").Triggers(src.Startup()).Effects(out).Do(func(c *Ctx) {
		srcTag = c.Tag()
		out.Set(c, 42)
	})
	dst.AddReaction("recv").Triggers(in).Do(func(c *Ctx) {
		v, ok := in.Get(c)
		if !ok {
			t.Error("port not present")
		}
		got = append(got, v)
		tags = append(tags, c.Tag())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got = %v", got)
	}
	if tags[0] != srcTag {
		t.Errorf("downstream tag %v != upstream tag %v (must be logically instantaneous)", tags[0], srcTag)
	}
}

func TestPortFanOut(t *testing.T) {
	env := fastEnv()
	src := env.NewReactor("src")
	out := NewOutputPort[string](src, "out")
	src.AddReaction("emit").Triggers(src.Startup()).Effects(out).Do(func(c *Ctx) {
		out.Set(c, "x")
	})
	received := 0
	for i := 0; i < 3; i++ {
		d := env.NewReactor(fmt.Sprintf("dst%d", i))
		in := NewInputPort[string](d, "in")
		Connect(out, in)
		d.AddReaction("recv").Triggers(in).Do(func(c *Ctx) {
			if v, ok := in.Get(c); ok && v == "x" {
				received++
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if received != 3 {
		t.Errorf("received = %d, want 3", received)
	}
}

func TestPortAbsentAtLaterTag(t *testing.T) {
	env := fastEnv(func(o *Options) { o.Timeout = logical.Duration(25 * ms) })
	r := env.NewReactor("r")
	out := NewOutputPort[int](r, "out")
	in := NewInputPort[int](r, "in")
	Connect(out, in)
	timer := NewTimer(r, "t", 0, logical.Duration(10*ms))
	presences := []bool{}
	n := 0
	r.AddReaction("emit").Triggers(timer).Effects(out).Do(func(c *Ctx) {
		n++
		if n == 1 {
			out.Set(c, 7) // only on the first tick
		}
	})
	r.AddReaction("check").Triggers(timer, in).Do(func(c *Ctx) {
		_, ok := in.Get(c)
		presences = append(presences, ok)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(presences) != 3 {
		t.Fatalf("checks = %v", presences)
	}
	if !presences[0] || presences[1] || presences[2] {
		t.Errorf("presences = %v, want [true false false]", presences)
	}
}

func TestLogicalActionDelay(t *testing.T) {
	env := fastEnv()
	r := env.NewReactor("r")
	act := NewLogicalAction[int](r, "a", logical.Duration(5*ms))
	var startTag, firedTag logical.Tag
	var got int
	rx := r.AddReaction("fire").Triggers(act).Do(func(c *Ctx) {
		firedTag = c.Tag()
		got, _ = act.Get(c)
	})
	_ = rx
	r.AddReaction("kick").Triggers(r.Startup()).Effects(act).Do(func(c *Ctx) {
		startTag = c.Tag()
		act.Schedule(c, 9, logical.Duration(2*ms))
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	want := startTag.Delay(logical.Duration(7 * ms))
	if firedTag != want {
		t.Errorf("fired at %v, want %v", firedTag, want)
	}
	if got != 9 {
		t.Errorf("value = %d", got)
	}
}

func TestZeroDelayActionAdvancesMicrostep(t *testing.T) {
	env := fastEnv()
	r := env.NewReactor("r")
	act := NewLogicalAction[int](r, "a", 0)
	var tags []logical.Tag
	r.AddReaction("kick").Triggers(r.Startup()).Effects(act).Do(func(c *Ctx) {
		tags = append(tags, c.Tag())
		act.Schedule(c, 1, 0)
	})
	r.AddReaction("fire").Triggers(act).Do(func(c *Ctx) {
		tags = append(tags, c.Tag())
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(tags) != 2 {
		t.Fatalf("tags = %v", tags)
	}
	if tags[1].Time != tags[0].Time || tags[1].Microstep != tags[0].Microstep+1 {
		t.Errorf("microstep semantics violated: %v then %v", tags[0], tags[1])
	}
}

func TestActionChainCounts(t *testing.T) {
	env := fastEnv()
	r := env.NewReactor("r")
	act := NewLogicalAction[int](r, "a", logical.Duration(ms))
	count := 0
	r.AddReaction("kick").Triggers(r.Startup()).Effects(act).Do(func(c *Ctx) {
		act.Schedule(c, 0, 0)
	})
	r.AddReaction("fire").Triggers(act).Effects(act).Do(func(c *Ctx) {
		v, _ := act.Get(c)
		count++
		if v < 9 {
			act.Schedule(c, v+1, 0)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
}

func TestReactionPriorityOrderWithinReactor(t *testing.T) {
	env := fastEnv()
	r := env.NewReactor("r")
	var order []int
	for i := 1; i <= 3; i++ {
		i := i
		r.AddReaction(fmt.Sprintf("r%d", i)).Triggers(r.Startup()).Do(func(c *Ctx) {
			order = append(order, i)
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestLevelsRespectDataflow(t *testing.T) {
	env := fastEnv()
	a := env.NewReactor("a")
	b := env.NewReactor("b")
	c := env.NewReactor("c")
	ab := NewOutputPort[int](a, "out")
	bIn := NewInputPort[int](b, "in")
	bOut := NewOutputPort[int](b, "out")
	cIn := NewInputPort[int](c, "in")
	Connect(ab, bIn)
	Connect(bOut, cIn)
	ra := a.AddReaction("emit").Triggers(a.Startup()).Effects(ab).Do(func(ctx *Ctx) { ab.Set(ctx, 1) })
	rb := b.AddReaction("fwd").Triggers(bIn).Effects(bOut).Do(func(ctx *Ctx) {
		v, _ := bIn.Get(ctx)
		bOut.Set(ctx, v+1)
	})
	rc := c.AddReaction("sink").Triggers(cIn).Do(func(ctx *Ctx) {})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !(ra.level < rb.level && rb.level < rc.level) {
		t.Errorf("levels: a=%d b=%d c=%d", ra.level, rb.level, rc.level)
	}
}

func TestCausalityCycleDetected(t *testing.T) {
	env := fastEnv()
	a := env.NewReactor("a")
	b := env.NewReactor("b")
	aOut := NewOutputPort[int](a, "out")
	aIn := NewInputPort[int](a, "in")
	bOut := NewOutputPort[int](b, "out")
	bIn := NewInputPort[int](b, "in")
	Connect(aOut, bIn)
	Connect(bOut, aIn)
	a.AddReaction("fwd").Triggers(aIn).Effects(aOut).Do(func(c *Ctx) {})
	b.AddReaction("fwd").Triggers(bIn).Effects(bOut).Do(func(c *Ctx) {})
	err := env.Run()
	if err == nil {
		t.Fatal("want causality cycle error")
	}
	if !strings.Contains(err.Error(), "causality cycle") {
		t.Errorf("err = %v", err)
	}
}

func TestUndeclaredEffectPanics(t *testing.T) {
	env := fastEnv()
	r := env.NewReactor("r")
	out := NewOutputPort[int](r, "out")
	r.AddReaction("bad").Triggers(r.Startup()).Do(func(c *Ctx) {
		out.Set(c, 1) // not declared
	})
	defer func() {
		if recover() == nil {
			t.Error("want panic for undeclared effect")
		}
	}()
	_ = env.Run()
}

func TestUndeclaredReadPanics(t *testing.T) {
	env := fastEnv()
	r := env.NewReactor("r")
	in := NewInputPort[int](r, "in")
	r.AddReaction("bad").Triggers(r.Startup()).Do(func(c *Ctx) {
		in.Get(c) // not declared
	})
	defer func() {
		if recover() == nil {
			t.Error("want panic for undeclared read")
		}
	}()
	_ = env.Run()
}

func TestMultipleUpstreamConnectionsRejected(t *testing.T) {
	env := fastEnv()
	a := env.NewReactor("a")
	b := env.NewReactor("b")
	o1 := NewOutputPort[int](a, "o1")
	o2 := NewOutputPort[int](a, "o2")
	in := NewInputPort[int](b, "in")
	Connect(o1, in)
	defer func() {
		if recover() == nil {
			t.Error("want panic for double connection")
		}
	}()
	Connect(o2, in)
}

func TestRequestStopFromReaction(t *testing.T) {
	env := fastEnv()
	r := env.NewReactor("r")
	timer := NewTimer(r, "t", 0, logical.Duration(ms))
	ticks := 0
	shut := false
	r.AddReaction("tick").Triggers(timer).Do(func(c *Ctx) {
		ticks++
		if ticks == 5 {
			c.RequestStop()
		}
	})
	r.AddReaction("stop").Triggers(r.Shutdown()).Do(func(c *Ctx) { shut = true })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Errorf("ticks = %d, want 5", ticks)
	}
	if !shut {
		t.Error("shutdown reaction did not run")
	}
}

func TestStatsCounting(t *testing.T) {
	env := fastEnv(func(o *Options) { o.Timeout = logical.Duration(10 * ms) })
	r := env.NewReactor("r")
	timer := NewTimer(r, "t", 0, logical.Duration(5*ms))
	invocations := 0
	r.AddReaction("tick").Triggers(timer).Do(func(c *Ctx) { invocations++ })
	var traced []logical.Tag
	env.SetTraceHook(func(ev TraceEvent) {
		if ev.Reaction == "r.tick" {
			traced = append(traced, ev.Tag)
		}
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if invocations != 3 { // 0, 5, 10
		t.Errorf("invocations = %d, want 3", invocations)
	}
	if len(traced) != 3 || traced[1].Time.Sub(traced[0].Time) != 5*ms || traced[2].Time.Sub(traced[1].Time) != 5*ms {
		t.Errorf("traced tick tags = %v, want three 5 ms apart", traced)
	}
}

// --- DES-driven execution ---

// simEnvHarness runs a reactor program as a DES process and reports the
// collected trace.
func runOnKernel(t *testing.T, seed uint64, build func(env *Environment), horizon logical.Duration) []string {
	t.Helper()
	k := des.NewKernel(seed)
	var trace []string
	done := false
	k.Spawn("env", func(p *des.Process) {
		env := NewEnvironment(Options{
			Clock:   NewSimClock(p, nil),
			Timeout: horizon,
		})
		env.SetTraceHook(func(ev TraceEvent) {
			trace = append(trace, ev.String())
		})
		build(env)
		if err := env.Run(); err != nil {
			t.Error(err)
		}
		done = true
	})
	k.RunAll()
	if !done {
		t.Fatal("environment did not finish")
	}
	return trace
}

func buildPipeline(env *Environment) {
	src := env.NewReactor("src")
	mid := env.NewReactor("mid")
	sink := env.NewReactor("sink")
	srcOut := NewOutputPort[int](src, "out")
	midIn := NewInputPort[int](mid, "in")
	midOut := NewOutputPort[int](mid, "out")
	sinkIn := NewInputPort[int](sink, "in")
	Connect(srcOut, midIn)
	Connect(midOut, sinkIn)
	timer := NewTimer(src, "t", 0, logical.Duration(10*ms))
	n := 0
	src.AddReaction("emit").Triggers(timer).Effects(srcOut).Do(func(c *Ctx) {
		n++
		srcOut.Set(c, n)
	})
	mid.AddReaction("fwd").Triggers(midIn).Effects(midOut).Do(func(c *Ctx) {
		v, _ := midIn.Get(c)
		c.DoWork(logical.Duration(2 * ms)) // physical compute time
		midOut.Set(c, v*2)
	})
	sink.AddReaction("recv").Triggers(sinkIn).Do(func(c *Ctx) {})
}

func TestSimClockExecutionAdvancesKernelTime(t *testing.T) {
	k := des.NewKernel(1)
	var endPhysical logical.Time
	k.Spawn("env", func(p *des.Process) {
		env := NewEnvironment(Options{Clock: NewSimClock(p, nil), Timeout: logical.Duration(100 * ms)})
		buildPipeline(env)
		if err := env.Run(); err != nil {
			t.Error(err)
		}
		endPhysical = p.Now()
	})
	k.RunAll()
	// 11 timer ticks (0..100ms) each with 2ms of work: physical end must
	// be past 100ms but not wildly so.
	if endPhysical < logical.Time(100*ms) {
		t.Errorf("physical end = %v, want >= 100ms", endPhysical)
	}
}

func TestDeterministicTraceAcrossSeeds(t *testing.T) {
	// Physical jitter (different seeds) must not alter the logical trace
	// of a program without physical actions.
	a := runOnKernel(t, 1, buildPipeline, logical.Duration(100*ms))
	b := runOnKernel(t, 999, buildPipeline, logical.Duration(100*ms))
	if len(a) == 0 {
		t.Fatal("empty trace")
	}
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestPhysicalActionFromAnotherProcess(t *testing.T) {
	k := des.NewKernel(1)
	var received []int
	var tags []logical.Tag
	envCh := make(chan *Environment, 1)
	var act *Action[int]
	k.Spawn("env", func(p *des.Process) {
		env := NewEnvironment(Options{Clock: NewSimClock(p, nil), KeepAlive: true})
		r := env.NewReactor("sensor")
		act = NewPhysicalAction[int](r, "sample", 0)
		r.AddReaction("recv").Triggers(act).Do(func(c *Ctx) {
			v, _ := act.Get(c)
			received = append(received, v)
			tags = append(tags, c.Tag())
			if len(received) == 3 {
				c.RequestStop()
			}
		})
		envCh <- env
		if err := env.Run(); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("sensor", func(p *des.Process) {
		<-envCh // env assembled (same kernel step; channel is buffered)
		for i := 1; i <= 3; i++ {
			p.Sleep(logical.Duration(10 * ms))
			act.ScheduleAsync(i)
		}
	})
	k.RunAll()
	if len(received) != 3 {
		t.Fatalf("received = %v", received)
	}
	for i, tag := range tags {
		want := logical.Time(10*(i+1)) * logical.Time(ms)
		if tag.Time != want {
			t.Errorf("sample %d tagged %v, want %v", i, tag.Time, want)
		}
	}
}

func TestScheduleAtSafeToProcess(t *testing.T) {
	k := des.NewKernel(1)
	var tags []logical.Tag
	var act *Action[int]
	ready := make(chan struct{}, 1)
	k.Spawn("env", func(p *des.Process) {
		env := NewEnvironment(Options{Clock: NewSimClock(p, nil), KeepAlive: true})
		r := env.NewReactor("rx")
		act = NewPhysicalAction[int](r, "msg", 0)
		r.AddReaction("recv").Triggers(act).Do(func(c *Ctx) {
			tags = append(tags, c.Tag())
			if len(tags) == 2 {
				c.RequestStop()
			}
		})
		ready <- struct{}{}
		if err := env.Run(); err != nil {
			t.Error(err)
		}
	})
	k.Spawn("net", func(p *des.Process) {
		<-ready
		p.Sleep(logical.Duration(5 * ms))
		// Message tagged 20ms: in the future, accepted as-is.
		_, ok := act.ScheduleAt(1, logical.Tag{Time: logical.Time(20 * ms)})
		if !ok {
			t.Error("future tag should be accepted")
		}
		p.Sleep(logical.Duration(30 * ms))
		// Message tagged 10ms: already in the past — bumped, flagged.
		_, ok = act.ScheduleAt(2, logical.Tag{Time: logical.Time(10 * ms)})
		if ok {
			t.Error("past tag must be reported as violated")
		}
	})
	k.RunAll()
	if len(tags) != 2 {
		t.Fatalf("tags = %v", tags)
	}
	if tags[0].Time != logical.Time(20*ms) {
		t.Errorf("first tag %v, want 20ms", tags[0])
	}
	if !tags[0].Before(tags[1]) {
		t.Errorf("tag order violated: %v then %v", tags[0], tags[1])
	}
}

func TestDeadlineViolationHandler(t *testing.T) {
	k := des.NewKernel(1)
	var violated, normal int
	k.Spawn("env", func(p *des.Process) {
		env := NewEnvironment(Options{Clock: NewSimClock(p, nil), Timeout: logical.Duration(100 * ms)})
		r := env.NewReactor("r")
		timer := NewTimer(r, "t", 0, logical.Duration(20*ms))
		slow := NewLogicalAction[int](r, "slow", 0)
		// First reaction consumes physical time, making the second miss
		// its deadline on some activations.
		n := 0
		r.AddReaction("work").Triggers(timer).Effects(slow).Do(func(c *Ctx) {
			n++
			if n%2 == 0 {
				c.DoWork(logical.Duration(10 * ms)) // physical delay
			}
			slow.Schedule(c, n, 0)
		})
		r.AddReaction("check").Triggers(slow).
			WithDeadline(logical.Duration(5*ms), func(c *Ctx) { violated++ }).
			Do(func(c *Ctx) { normal++ })
		if err := env.Run(); err != nil {
			t.Error(err)
		}
	})
	k.RunAll()
	if violated == 0 {
		t.Error("expected deadline violations")
	}
	if normal == 0 {
		t.Error("expected some on-time activations")
	}
}

func TestFastModeIgnoresPhysicalTime(t *testing.T) {
	// A long logical horizon completes immediately in fast mode.
	env := fastEnv(func(o *Options) { o.Timeout = 3600 * logical.Second })
	r := env.NewReactor("r")
	timer := NewTimer(r, "t", 0, 60*logical.Second)
	count := 0
	r.AddReaction("tick").Triggers(timer).Do(func(c *Ctx) { count++ })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 61 {
		t.Errorf("count = %d, want 61", count)
	}
}

func TestRunTwiceFails(t *testing.T) {
	env := fastEnv()
	env.NewReactor("r")
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != ErrAlreadyRan {
		t.Errorf("err = %v, want ErrAlreadyRan", err)
	}
}

// A physical action fed from a goroutine other than the kernel's, through
// des.RealTime.Inject, is delivered value for value in tag order to an
// environment running as a kernel process; the receiving reaction stops
// the run after the last value, and the timeout bounds the run if an
// event is lost.
func TestScheduleAsyncFromForeignGoroutine(t *testing.T) {
	const n = 200
	drv := des.NewRealTime(des.NewKernel(1))
	var env *Environment
	ran := make(chan error, 1)
	p := drv.Kernel().Spawn("env", func(*des.Process) { ran <- env.Run() })
	env = NewEnvironment(Options{Clock: NewSimClock(p, nil), KeepAlive: true, Timeout: logical.Duration(10 * logical.Second)})
	r := env.NewReactor("r")
	act := NewPhysicalAction[int](r, "a", 0)
	var got []int
	var tags []logical.Tag
	r.AddReaction("recv").Triggers(act).Do(func(c *Ctx) {
		v, _ := act.Get(c)
		got = append(got, v)
		tags = append(tags, c.Tag())
		if len(got) == n {
			c.RequestStop()
		}
	})
	go drv.Run()
	t.Cleanup(func() {
		drv.Stop()
		<-drv.Done()
		drv.Kernel().Shutdown()
	})
	go func() {
		for i := 0; i < n; i++ {
			drv.Inject(func() { act.ScheduleAsync(i) })
			if i%20 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()
	if err := <-ran; err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("delivered %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("value %d delivered as %d", i, v)
		}
		if i > 0 && !tags[i-1].Before(tags[i]) {
			t.Fatalf("tag order violated at %d: %v then %v", i, tags[i-1], tags[i])
		}
	}
}

// Without a clock an environment runs on logical time alone: every run
// starts at tag (0,0), physical time reads as the tag's time, and so a
// startup reaction meets even a 1-ns deadline.
func TestFastModeRunsOnLogicalTime(t *testing.T) {
	for run := 0; run < 2; run++ {
		env := fastEnv()
		r := env.NewReactor("r")
		var start logical.Tag
		var phys logical.Time
		body, handler := false, false
		r.AddReaction("s").Triggers(r.Startup()).WithDeadline(1, func(c *Ctx) {
			handler = true
		}).Do(func(c *Ctx) {
			body = true
			start, phys = c.Tag(), c.PhysicalTime()
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if !body || handler {
			t.Fatalf("run %d: body ran %v, deadline handler ran %v; want the body only", run, body, handler)
		}
		if start != (logical.Tag{}) {
			t.Errorf("run %d: start tag %v, want (0,0)", run, start)
		}
		if phys != start.Time {
			t.Errorf("run %d: PhysicalTime %v, want the tag's time %v", run, phys, start.Time)
		}
	}
}

func TestSimClockWithLocalClock(t *testing.T) {
	k := des.NewKernel(3)
	n := simnet.NewNetwork(k, simnet.Config{})
	_ = n
	// 10% fast: at global 70ms the local clock reads 77ms.
	local := k.NewLocalClock(des.ClockConfig{DriftPPB: 100_000_000}, nil)
	var startTag logical.Time
	k.SpawnAt(logical.Time(70*ms), "env", func(p *des.Process) {
		env := NewEnvironment(Options{Clock: NewSimClock(p, local), Timeout: logical.Duration(10 * ms)})
		r := env.NewReactor("r")
		r.AddReaction("s").Triggers(r.Startup()).Do(func(c *Ctx) {
			startTag = c.Tag().Time
		})
		if err := env.Run(); err != nil {
			t.Error(err)
		}
	})
	k.RunAll()
	if startTag != logical.Time(77*ms) {
		t.Errorf("start tag %v, want local 77ms", startTag)
	}
}
