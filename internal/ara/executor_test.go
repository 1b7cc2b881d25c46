package ara

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/someip"
)

// bareRuntime is a runtime on k with no endpoint whose served tasks run
// on e: enough to build tasks through newServe and its free list.
func bareRuntime(k *des.Kernel, e *Executor) *Runtime { return &Runtime{k: k, exec: e} }

// eventTask builds a notification task running fn through rt's free
// list; the executor returns it there once fn returns.
func eventTask(rt *Runtime, fn func(*Ctx, []byte)) *serve {
	s := rt.newServe(nil, &someip.Message{Type: someip.TypeNotification})
	s.event = fn
	return s
}

// pinRun drives one seeded kernel through an executor with the default
// (exponential) dispatch jitter: bursts submitted from several events at
// the same instant, nested submits from inside running tasks, and tasks
// that Exec for varying times (zero included). It returns one line per
// task — id, start and end time, and the kernel's fired-event count at
// start and end — in start order, plus the total events fired and the
// peak number of tasks inside their handler at once.
func pinRun(workers int, serialized bool) (lines []string, events uint64, peak int) {
	k := des.NewKernel(7)
	e := NewExecutor(k, k.Rand("exec"), ExecConfig{Workers: workers, Serialized: serialized})
	rt := bareRuntime(k, e)
	next, inside := 0, 0
	var submit func(depth int)
	submit = func(depth int) {
		id := next
		next++
		e.submit(eventTask(rt, func(c *Ctx, _ []byte) {
			inside++
			if inside > peak {
				peak = inside
			}
			start, startEv := c.Now(), k.EventsFired()
			if depth == 0 && id%4 == 1 {
				submit(depth + 1)
			}
			c.Exec(logical.Duration(id*37%11) * 7 * logical.Microsecond)
			if depth == 0 && id%6 == 2 {
				submit(depth + 1)
			}
			inside--
			lines = append(lines, fmt.Sprintf("%d %d-%d @%d/%d", id, start, c.Now(), startEv, k.EventsFired()))
		}))
	}
	burst := func(n int) func() {
		return func() {
			for i := 0; i < n; i++ {
				submit(0)
			}
		}
	}
	burst(3)()
	k.At(logical.Time(50*logical.Microsecond), burst(4))
	k.At(logical.Time(50*logical.Microsecond), burst(3))
	k.At(logical.Time(120*logical.Microsecond), burst(5))
	k.At(logical.Time(120*logical.Microsecond), burst(5))
	k.At(logical.Time(400*logical.Microsecond), burst(6))
	k.RunAll()
	k.Shutdown()
	return lines, k.EventsFired(), peak
}

// TestExecutorSchedulePinned pins the executor's complete schedule —
// which task starts and ends when, at which fired-event index, and the
// total number of kernel events — for Workers 2 and 3 with Serialized on
// and off. The literals were captured from the dispatcher-process
// executor (one dispatcher process plus one spawned process per task);
// any dispatch design that adds, drops or reorders a kernel event, or
// draws the jitter stream in a different order, fails here.
func TestExecutorSchedulePinned(t *testing.T) {
	cases := []struct {
		workers    int
		serialized bool
		tasks      int
		events     uint64
		peak       int
		digest     uint64
	}{
		{2, false, 39, 121, 2, 0xaee169053802ace9},
		{3, false, 39, 121, 3, 0x1d2676d6df63853b},
		{2, true, 39, 137, 1, 0xfa026aab11397d73},
		{3, true, 39, 150, 1, 0xde8cf09dbd5bbdd5},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("workers=%d/serialized=%v", tc.workers, tc.serialized), func(t *testing.T) {
			lines, events, peak := pinRun(tc.workers, tc.serialized)
			h := fnv.New64a()
			for _, l := range lines {
				fmt.Fprintln(h, l)
			}
			digest := h.Sum64()
			if len(lines) != tc.tasks || events != tc.events || peak != tc.peak || digest != tc.digest {
				t.Errorf("tasks=%d events=%d peak=%d digest=%#x, want tasks=%d events=%d peak=%d digest=%#x\nschedule:\n%s",
					len(lines), events, peak, digest, tc.tasks, tc.events, tc.peak, tc.digest, strings.Join(lines, "\n"))
			}
			// The concurrency cap: at most Workers handlers at once, and
			// Serialized makes it one.
			if peak > tc.workers || (tc.serialized && peak != 1) {
				t.Errorf("peak concurrency %d with Workers=%d serialized=%v", peak, tc.workers, tc.serialized)
			}
		})
	}
}

// TestExecutorSteadyStateBudget gates the pooled executor's steady state:
// once warm, tasks through a serialized two-thread executor spawn no
// process and no goroutine, and allocate nothing, the served task
// included: each round builds its tasks through the runtime's free list,
// which the finished tasks of the round before refilled, and each
// worker thread reuses one Ctx.
func TestExecutorSteadyStateBudget(t *testing.T) {
	const n = 200
	k := des.NewKernel(1)
	e := NewExecutor(k, k.Rand("exec"), ExecConfig{Workers: 2, Serialized: true})
	rt := bareRuntime(k, e)
	sum := 0
	handlers := make([]func(*Ctx, []byte), n)
	for i := range handlers {
		handlers[i] = func(c *Ctx, _ []byte) {
			sum += i
			c.Exec(10 * logical.Microsecond)
		}
	}
	round := func() {
		for _, h := range handlers {
			e.submit(eventTask(rt, h))
		}
		k.RunAll()
	}
	round() // warm-up: spawns the pool and grows the queue and free lists
	if len(rt.free) != n {
		t.Errorf("%d served tasks back on the free list after the warm-up, want %d", len(rt.free), n)
	}
	workers, goroutines := len(e.idle), runtime.NumGoroutine()
	perTask := testing.AllocsPerRun(10, round) / n
	t.Logf("%d workers, %.3f allocs/task", workers, perTask)
	if workers != 2 {
		t.Errorf("warm pool holds %d idle workers, want 2", workers)
	}
	if len(e.idle) != workers || runtime.NumGoroutine() > goroutines {
		t.Errorf("steady state grew the pool: workers %d -> %d, goroutines %d -> %d",
			workers, len(e.idle), goroutines, runtime.NumGoroutine())
	}
	if perTask > 0 {
		t.Errorf("%.3f allocs/task, budget 0", perTask)
	}
	k.Shutdown()
}

// TestExecutorShutdownReleasesWorkers checks the pool's lifetime: a
// runtime whose executor holds idle pooled workers returns the process
// to its goroutine baseline after RunAll and Shutdown, and a task killed
// mid-Exec still runs its deferred mutex Unlock.
func TestExecutorShutdownReleasesWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	f := newFixture(t, 1, ExecConfig{Workers: 3, Serialized: true})
	var callErr error
	f.client.Spawn("main", func(c *Ctx) {
		px, err := f.client.FindServiceSync(c.Process(), calcIface, 1, logical.Duration(logical.Second))
		if err != nil {
			callErr = err
			return
		}
		futs := make([]*Future, 8)
		for i := range futs {
			futs[i] = px.Call("add", u32(1))
		}
		for _, fut := range futs {
			if _, err := fut.Get(c.Process()); err != nil {
				callErr = err
				return
			}
		}
	})
	f.k.RunAll()
	if callErr != nil {
		t.Fatal(callErr)
	}
	e := f.server.exec
	if len(e.idle) < 2 || f.value != 8 {
		t.Fatalf("%d idle workers after %d adds, want ≥2 after 8", len(e.idle), f.value)
	}
	// One task holds the mutex inside a long Exec; a second waits for it.
	for i := 0; i < 2; i++ {
		e.submit(eventTask(f.server, func(c *Ctx, _ []byte) { c.Exec(logical.Second) }))
	}
	f.k.Run(f.k.Now().Add(10 * logical.Millisecond))
	if !e.mutex.locked || len(e.mutex.waiters) != 1 {
		t.Fatalf("locked=%v waiters=%d, want a task inside Exec and one waiting", e.mutex.locked, len(e.mutex.waiters))
	}
	f.k.Shutdown()
	if e.mutex.locked {
		t.Error("task killed mid-Exec left the mutex locked")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Shutdown, baseline %d", runtime.NumGoroutine(), base)
		}
		runtime.Gosched()
	}
}

// TestExecutorIgnoresStaleUnpark shows a worker thread absorbing an
// Unpark aimed at it by an earlier task: idle, it parks again; handed a
// task whose start time lies ahead, it still starts at that time.
func TestExecutorIgnoresStaleUnpark(t *testing.T) {
	k := des.NewKernel(1)
	jitter := func(*des.Rand) logical.Duration { return 10 }
	e := NewExecutor(k, k.Rand("exec"), ExecConfig{Workers: 1, DispatchJitter: jitter})
	rt := bareRuntime(k, e)
	var first *des.Process
	var starts []logical.Time
	e.submit(eventTask(rt, func(c *Ctx, _ []byte) {
		first = c.Process()
		starts = append(starts, c.Now())
		c.Exec(5)
	}))
	k.At(20, func() { first.Unpark() }) // idle: no task
	k.At(30, func() {
		e.submit(eventTask(rt, func(c *Ctx, _ []byte) { starts = append(starts, c.Now()) }))
	})
	k.At(35, func() { first.Unpark() }) // handed a task due at 40
	k.RunAll()
	if len(starts) != 2 || starts[0] != 10 || starts[1] != 40 {
		t.Errorf("tasks started at %v, want [10 40]", starts)
	}
	if len(e.idle) != 1 {
		t.Errorf("%d idle workers, want the one reused thread", len(e.idle))
	}
	k.Shutdown()
}
