package exp

import (
	"fmt"
	"time"

	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/metrics"
	"repro/internal/someip"
)

// --- Experiment E9: tagged round trips over real loopback UDP ---
//
// E9 is the substrate-independence check: the same ara::com runtime,
// executor, futures and tagged binding that every other experiment
// drives deterministically over the simulated network here run over
// real loopback UDP sockets, with each runtime's kernel advanced by a
// physical-clock driver. Latencies are wall-clock measurements, so —
// unlike E1–E8 — the numbers are machine-dependent and not reproducible
// bit-for-bit; what the experiment demonstrates is that the tag trailer
// survives a real network stack in both directions.

// LoopbackResult summarizes a loopback round-trip run.
type LoopbackResult struct {
	// Requested and completed round trips.
	Requested, Completed int
	// TagsEchoed counts responses whose trailer carried the expected
	// delayed request tag.
	TagsEchoed int
	// RTTMin/RTTMean/RTTMax are wall-clock round-trip times.
	RTTMin, RTTMean, RTTMax time.Duration
}

// Table renders the result for the experiment drivers.
func (r *LoopbackResult) Table() *metrics.Table {
	t := metrics.NewTable("metric", "value")
	t.Row("round trips", fmt.Sprintf("%d/%d", r.Completed, r.Requested))
	t.Row("tagged responses", r.TagsEchoed)
	t.Row("rtt min", r.RTTMin.String())
	t.Row("rtt mean", r.RTTMean.String())
	t.Row("rtt max", r.RTTMax.String())
	return t
}

// loopbackIface is the echo service used by E9 and E13.
var loopbackIface = &ara.ServiceInterface{
	Name:  "LoopbackEcho",
	ID:    0x2102,
	Major: 1,
	Methods: []ara.MethodSpec{
		{ID: 1, Name: "echo"},
	},
}

// loopbackDeadline is the echo service's response-tag delay (the
// server transactor deadline Ds in paper terms).
const loopbackDeadline = 500 * logical.Microsecond

// registerLoopbackEcho installs the echo service on a runtime: the
// response mirrors the request payload and delays the request tag by
// the service deadline — a pure function of the tagged input, which
// is what makes a recorded run replayable (E13).
func registerLoopbackEcho(rt *ara.Runtime) (*ara.Skeleton, error) {
	sk, err := rt.NewSkeleton(loopbackIface, 1)
	if err != nil {
		return nil, err
	}
	err = sk.HandleAsync("echo", func(c *ara.Ctx, args []byte) *ara.Future {
		r := ara.Result{Payload: args}
		if tag := c.Message().Tag; tag != nil {
			delayed := tag.Delay(loopbackDeadline)
			r.Tag = &delayed
		}
		return ara.ResolvedFuture(c.Runtime().Kernel(), r)
	})
	if err != nil {
		return nil, err
	}
	return sk, nil
}

// loopbackHook stamps each outgoing request with the tag staged by the
// client loop (a miniature timestamp bypass).
type loopbackHook struct {
	next *logical.Tag
}

func (h *loopbackHook) Outgoing(m *someip.Message) {
	if m.Type == someip.TypeRequest && m.Tag == nil && h.next != nil {
		t := *h.next
		m.Tag = &t
	}
}

// RunLoopback performs n sequential tagged method round trips between
// two ara runtimes bound to real loopback UDP sockets and reports
// wall-clock latency statistics. timeout bounds each individual call.
func RunLoopback(n int, timeout time.Duration) (*LoopbackResult, error) {
	return runLoopback(n, timeout, "loopback", func(*des.RealTime) ara.Config {
		return ara.Config{Name: "server", Tagged: true}
	})
}

// runLoopback is the one body of the E9 workload, shared by RunLoopback
// and the E13 recording path: n sequential tagged echo round trips
// between two UDP-bound runtimes, each kernel advanced by its own
// real-time driver. serverCfg builds the server runtime's config from
// the server's driver (the recording path wraps the endpoint with a
// recorder stamped by that driver's clock); what names the run in
// errors. Both drivers are stopped and both kernels shut down before
// it returns.
func runLoopback(n int, timeout time.Duration, what string, serverCfg func(drv *des.RealTime) ara.Config) (*LoopbackResult, error) {
	if n <= 0 {
		return nil, fmt.Errorf("exp: %s needs n > 0", what)
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	drvS := des.NewRealTime(des.NewKernel(1))
	drvC := des.NewRealTime(des.NewKernel(2))

	server, err := ara.NewUDPRuntime(drvS, "127.0.0.1:0", serverCfg(drvS))
	if err != nil {
		return nil, err
	}
	defer server.Close()
	client, err := ara.NewUDPRuntime(drvC, "127.0.0.1:0", ara.Config{Name: "client", Tagged: true})
	if err != nil {
		return nil, err
	}
	defer client.Close()

	sk, err := registerLoopbackEcho(server)
	if err != nil {
		return nil, err
	}
	sk.Offer()

	hook := &loopbackHook{}
	client.SetBindingHook(hook)

	res := &LoopbackResult{Requested: n}
	done := make(chan error, 1)
	client.Spawn("driver", func(c *ara.Ctx) {
		px := client.StaticProxy(loopbackIface, 1, server.Addr())
		var total time.Duration
		for i := 0; i < n; i++ {
			tag := logical.Tag{Time: logical.Time(i+1) * logical.Time(logical.Millisecond)}
			hook.next = &tag
			begin := time.Now()
			fut := px.Call("echo", []byte{byte(i)})
			if _, err := fut.GetTimeout(c.Process(), logical.Duration(timeout)); err != nil {
				done <- fmt.Errorf("exp: %s call %d: %w", what, i, err)
				return
			}
			rtt := time.Since(begin)
			res.Completed++
			total += rtt
			if res.RTTMin == 0 || rtt < res.RTTMin {
				res.RTTMin = rtt
			}
			if rtt > res.RTTMax {
				res.RTTMax = rtt
			}
			if r, ok := fut.Result(); ok && r.Tag != nil && *r.Tag == tag.Delay(loopbackDeadline) {
				res.TagsEchoed++
			}
		}
		res.RTTMean = total / time.Duration(n)
		done <- nil
	})

	go drvS.Run()
	go drvC.Run()
	defer func() {
		drvS.Stop()
		drvC.Stop()
		<-drvS.Done()
		<-drvC.Done()
		server.Kernel().Shutdown()
		client.Kernel().Shutdown()
	}()

	select {
	case err := <-done:
		if err != nil {
			return nil, err
		}
	case <-time.After(time.Duration(n)*timeout + 5*time.Second):
		return nil, fmt.Errorf("exp: %s run stalled", what)
	}
	return res, nil
}
