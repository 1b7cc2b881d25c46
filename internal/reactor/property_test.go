package reactor

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/logical"
)

// programSpec describes a pseudo-random reactor pipeline: a chain of
// nStages reactors, each stage with a per-stage work duration, driven
// by a timer. A link between stages is a port connection, or a logical
// action where the link has a delay.
type programSpec struct {
	Stages   uint8
	Delays   [6]uint16 // link delays in µs (0 = port connection)
	Period   uint16    // timer period in ms
	WorkUS   [6]uint16 // per-stage DoWork in µs
	Horizon  uint8     // timeout in timer periods
	KernSeed uint64
}

// stageLink carries one stage's value into the next: through a
// connected port pair, or through act, a logical action of the link's
// delay on the next stage.
type stageLink struct {
	out, in *Port[int]
	act     *Action[int]
}

func (l *stageLink) effect() Effect {
	if l.act != nil {
		return l.act
	}
	return l.out
}

func (l *stageLink) trigger() Trigger {
	if l.act != nil {
		return l.act
	}
	return l.in
}

func (l *stageLink) set(c *Ctx, v int) {
	if l.act != nil {
		l.act.Schedule(c, v, 0)
		return
	}
	l.out.Set(c, v)
}

func (l *stageLink) get(c *Ctx) int {
	if l.act != nil {
		v, _ := l.act.Get(c)
		return v
	}
	v, _ := l.in.Get(c)
	return v
}

// runRandomProgram runs the pipeline spec describes and returns the
// collected trace.
func runRandomProgram(spec programSpec) ([]string, error) {
	var trace []string
	err := runRandomProgramHook(spec, func(ev TraceEvent) { trace = append(trace, ev.String()) })
	return trace, err
}

// runRandomProgramHook runs the pipeline spec describes, passing each
// trace event to hook.
func runRandomProgramHook(spec programSpec, hook func(TraceEvent)) error {
	stages := int(spec.Stages%5) + 2 // 2..6
	period := logical.Duration(int(spec.Period%40)+10) * logical.Millisecond
	horizon := logical.Duration(int(spec.Horizon%6)+3) * period

	k := des.NewKernel(spec.KernSeed)
	var runErr error
	k.Spawn("env", func(p *des.Process) {
		env := NewEnvironment(Options{Clock: NewSimClock(p, nil), Timeout: horizon})
		env.SetTraceHook(hook)

		reactors := make([]*Reactor, stages)
		inPorts := make([]*Port[int], stages)
		outPorts := make([]*Port[int], stages)
		for i := 0; i < stages; i++ {
			reactors[i] = env.NewReactor(fmt.Sprintf("s%d", i))
			inPorts[i] = NewInputPort[int](reactors[i], "in")
			outPorts[i] = NewOutputPort[int](reactors[i], "out")
		}
		// links[i] feeds stage i+1.
		links := make([]*stageLink, stages-1)
		for i := range links {
			links[i] = &stageLink{out: outPorts[i], in: inPorts[i+1]}
			if d := logical.Duration(spec.Delays[i%len(spec.Delays)]%500) * logical.Microsecond; d > 0 {
				links[i].act = NewLogicalAction[int](reactors[i+1], "in", d)
			} else {
				Connect(outPorts[i], inPorts[i+1])
			}
		}
		timer := NewTimer(reactors[0], "t", 0, period)
		n := 0
		reactors[0].AddReaction("emit").Triggers(timer).Effects(links[0].effect()).Do(func(c *Ctx) {
			n++
			links[0].set(c, n)
		})
		for i := 1; i < stages; i++ {
			i := i
			work := logical.Duration(spec.WorkUS[i%len(spec.WorkUS)]%800) * logical.Microsecond
			rx := reactors[i].AddReaction("fwd").Triggers(links[i-1].trigger())
			if i+1 < stages {
				rx.Effects(links[i].effect())
			}
			rx.Do(func(c *Ctx) {
				v := links[i-1].get(c)
				if work > 0 {
					c.DoWork(work)
				}
				if i+1 < stages {
					links[i].set(c, v+1)
				}
			})
		}
		runErr = env.Run()
	})
	k.RunAll()
	return runErr
}

// Property: arbitrary pipeline programs run without error and produce
// identical traces when re-run with the same spec.
func TestRandomProgramsDeterministic(t *testing.T) {
	f := func(spec programSpec) bool {
		a, err := runRandomProgram(spec)
		if err != nil {
			t.Logf("spec %+v: %v", spec, err)
			return false
		}
		b, err := runRandomProgram(spec)
		if err != nil {
			return false
		}
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return len(a) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: trace tags never regress — the scheduler processes events in
// tag order regardless of program shape, also where delayed links put
// one tick's later-tag events among the next tick's.
func TestRandomProgramsTagsMonotone(t *testing.T) {
	f := func(spec programSpec) bool {
		var trace []logical.Tag
		if err := runRandomProgramHook(spec, func(ev TraceEvent) { trace = append(trace, ev.Tag) }); err != nil {
			t.Logf("spec %+v: %v", spec, err)
			return false
		}
		for i := 1; i < len(trace); i++ {
			if trace[i].Before(trace[i-1]) {
				t.Logf("tag regression at %d: %v after %v", i, trace[i], trace[i-1])
				return false
			}
		}
		return len(trace) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: physical action tags from an external process are strictly
// increasing when scheduled at increasing physical times.
func TestPhysicalActionTagsMonotoneProperty(t *testing.T) {
	f := func(gaps [8]uint16, seed uint64) bool {
		k := des.NewKernel(seed)
		var tags []logical.Tag
		var act *Action[int]
		ready := make(chan struct{}, 1)
		k.Spawn("env", func(p *des.Process) {
			env := NewEnvironment(Options{Clock: NewSimClock(p, nil), KeepAlive: true, Timeout: logical.Second})
			r := env.NewReactor("rx")
			act = NewPhysicalAction[int](r, "a", 0)
			r.AddReaction("recv").Triggers(act).Do(func(c *Ctx) {
				tags = append(tags, c.Tag())
			})
			ready <- struct{}{}
			_ = env.Run()
		})
		k.Spawn("driver", func(p *des.Process) {
			<-ready
			for i, g := range gaps {
				p.Sleep(logical.Duration(int(g%2000)) * logical.Microsecond)
				act.ScheduleAsync(i)
			}
		})
		k.RunAll()
		if len(tags) != len(gaps) {
			return false
		}
		for i := 1; i < len(tags); i++ {
			if !tags[i-1].Before(tags[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
