package exp

import (
	"fmt"
	"time"

	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/metrics"
	"repro/internal/someip"
	"repro/internal/trace"
)

// --- Experiment E13: record/replay across substrates ---
//
// The paper's central claim is that a DEAR application is a pure
// function of its tagged inputs. E13 checks the strongest consequence
// of that claim the repo can exercise: a *physical* run — the E9
// loopback workload over real UDP sockets, wall-clock scheduled — is
// recorded at the someip.Endpoint seam (tagged inputs in full,
// outputs as digests), and the recorded inputs are then re-injected
// into a *fresh simulated kernel* via a trace.Replayer endpoint. If
// the claim holds, the replayed run reproduces the recorded outputs
// record-for-record: same order, same bytes, same tags — only the
// timestamps shift from wall-derived to simulated, so the comparison
// strips times (trace.Trace.WithoutTimes).

// zeroDispatch eliminates executor dispatch jitter: the recorded
// run's strict input/output alternation must be reproduced by the
// replay kernel regardless of what the jitter stream would draw.
func zeroDispatch(*des.Rand) logical.Duration { return 0 }

// replayExec is the executor configuration shared by the recorded and
// the replayed server — jitter-free and serialized, so handler
// dispatch order equals arrival order in both runs.
var replayExec = ara.ExecConfig{Workers: 1, Serialized: true, DispatchJitter: zeroDispatch}

// ReplayResult is the outcome of one E13 record/replay round trip.
type ReplayResult struct {
	// Live carries the wall-clock stats of the recorded (physical)
	// run.
	Live *LoopbackResult
	// Recorded is the live run's trace: inputs stored in full,
	// outputs as digests.
	Recorded *trace.Trace
	// Replayed is the simulated re-execution's trace.
	Replayed *trace.Trace
	// Divergence is the first recorded/replayed disagreement after
	// stripping times, or nil when the replay reproduced the run.
	Divergence *trace.Divergence
}

// Match reports whether the replayed run reproduced the recorded one.
func (r *ReplayResult) Match() bool { return r.Divergence == nil }

// Table renders the result for the experiment drivers.
func (r *ReplayResult) Table() *metrics.Table {
	t := metrics.NewTable("metric", "value")
	t.Row("round trips", fmt.Sprintf("%d/%d", r.Live.Completed, r.Live.Requested))
	t.Row("recorded events", r.Recorded.Len())
	t.Row("recorded inputs", r.Recorded.Filter(trace.KindRecv).Len())
	t.Row("recorded outputs", r.Recorded.Filter(trace.KindSend).Len())
	t.Row("replayed events", r.Replayed.Len())
	t.Row("replay matches", r.Match())
	return t
}

// RecordLoopback performs n tagged round trips between two UDP-bound
// ara runtimes (the E9 workload) with the server's endpoint wrapped
// in a trace recorder, and returns the server-side trace alongside
// the wall-clock stats. The trace holds every inbound request in full
// (marshaled bytes, tag trailer included) and every outbound response
// as a digest — exactly what ReplaySimulated needs.
func RecordLoopback(n int, timeout time.Duration) (*trace.Trace, *LoopbackResult, error) {
	return recordLoopback(n, timeout, nil)
}

// recordLoopback is RecordLoopback with a tap: tap, when non-nil,
// observes every appended record of the live run in append order
// (TestMonitorLoopbackLive taps a monitor engine onto it).
func recordLoopback(n int, timeout time.Duration, tap trace.Tap) (*trace.Trace, *LoopbackResult, error) {
	var rec *trace.Recorder
	res, err := runLoopback(n, timeout, "replay recording", func(drv *des.RealTime) ara.Config {
		rec = trace.NewRecorder(4*n + 64)
		rec.SetTap(tap)
		return ara.Config{
			Name:   "server",
			Tagged: true,
			Exec:   replayExec,
			WrapEndpoint: func(ep someip.Endpoint) someip.Endpoint {
				return trace.NewRecordingEndpoint(ep, rec, "server", drv.Elapsed)
			},
		}
	})
	if err != nil {
		return nil, nil, err
	}
	// Snapshot after the drivers have stopped: every response send is
	// recorded before the client's future resolves, so the trace is
	// complete here.
	return rec.Trace(), res, nil
}

// ReplaySimulated re-executes a recorded loopback run inside a fresh
// deterministic kernel: a trace.Replayer injects the stored tagged
// inputs at their recorded times, the same echo service processes
// them, and every output lands in the returned trace.
func ReplaySimulated(recorded *trace.Trace) (*trace.Trace, error) {
	k := des.NewKernel(1)
	out := trace.NewRecorder(2*recorded.Len() + 64)
	rp := trace.NewReplayer(k, recorded, out)
	if rp.Inputs() == 0 {
		return nil, fmt.Errorf("exp: trace holds no stored inputs to replay")
	}
	rt, err := ara.NewEndpointRuntime(k, rp, ara.Config{Name: "server", Tagged: true, Exec: replayExec})
	if err != nil {
		return nil, err
	}
	sk, err := registerLoopbackEcho(rt)
	if err != nil {
		return nil, err
	}
	sk.Offer()
	if err := rp.Start(); err != nil {
		return nil, err
	}
	k.RunAll()
	k.Shutdown()
	return out.Trace(), nil
}

// RunReplay executes E13 once: record a live n-round-trip loopback
// run over real UDP, replay it in the simulator, and diff the two
// traces (times stripped — wall-derived timestamps become simulated
// ones; everything else must match record-for-record).
func RunReplay(n int, timeout time.Duration) (*ReplayResult, error) {
	recorded, live, err := RecordLoopback(n, timeout)
	if err != nil {
		return nil, err
	}
	replayed, err := ReplaySimulated(recorded)
	if err != nil {
		return nil, err
	}
	return &ReplayResult{
		Live:       live,
		Recorded:   recorded,
		Replayed:   replayed,
		Divergence: trace.FirstDivergence(recorded.WithoutTimes(), replayed.WithoutTimes()),
	}, nil
}
