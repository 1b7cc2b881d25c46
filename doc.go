// Package dear is a Go reproduction of "Achieving Determinism in Adaptive
// AUTOSAR" (Menard, Goens, Lohstroh, Castrillon — DATE 2020): the DEAR
// framework, which layers the deterministic reactor model of computation
// on top of the AUTOSAR Adaptive Platform's service-oriented
// communication stack.
//
// The package re-exports the part of the internal packages' API that
// the examples use:
//
//   - the reactor runtime (environments, reactors, reactions, ports,
//     actions, timers, deadlines) — internal/reactor;
//   - the DEAR framework (software components, event and field
//     transactors, safe-to-process configuration) — internal/core;
//   - the ara::com substrate (service interfaces, runtimes, skeletons,
//     futures) — internal/ara;
//   - the deterministic simulation substrate (kernel, platforms with
//     drifting clocks, network with latency models) — internal/des and
//     internal/simnet.
//
// Everything else is reached through the internal packages directly.
//
// # A minimal deterministic program
//
//	env := dear.NewEnvironment(dear.Options{Fast: true})
//	r := env.NewReactor("hello")
//	tick := dear.NewTimer(r, "tick", 0, dear.Duration(100*dear.Millisecond))
//	r.AddReaction("greet").Triggers(tick).Do(func(c *dear.ReactionCtx) {
//	    fmt.Println("logical time:", c.Tag().Time)
//	})
//	env.Run()
//
// # Deterministic software components
//
// SWCs couple a reactor program to AUTOSAR AP service interfaces through
// transactors; see examples/ for complete pipelines, and internal/apd for
// the paper's brake-assistant case study in both the stock
// (nondeterministic) and the DEAR (deterministic) variant.
//
// # Choosing a transport
//
// A Runtime created with NewRuntime binds a simulated network endpoint,
// discovers peers through the simulated SD multicast group, and is
// driven reproducibly by Kernel.Run:
//
//	rt, err := dear.NewRuntime(host, dear.RuntimeConfig{Name: "swc", Tagged: true})
//
// The real-UDP deployment path is ara.NewUDPRuntime driven by
// des.RealTime. Experiment E9 (exp.RunLoopback) is a complete
// two-federate deployment over loopback:
// `go run ./cmd/experiments -only loopback`.
//
// # Beyond the facade
//
//   - Sharded simulation: des.Federation and simnet.Cluster; experiment
//     E10, `go run ./cmd/experiments -only mesh`.
//   - Fault injection and recovery: simnet.FaultPlan, Host.Crash and
//     Host.Restart; experiment E11, `-only faults`.
//   - Declarative scenarios: internal/scenario; experiment E12, `-only
//     topo`, and `-scenario examples/scenarios/star.json`.
//   - Logical traces and record/replay: internal/trace; experiment E13,
//     `-trace f` then `-replay f`.
//   - Online runtime verification: internal/monitor; experiment E16,
//     `-only monitors`.
package dear
