package core

import (
	"fmt"

	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/reactor"
	"repro/internal/simnet"
)

// SWC is a DEAR-enabled software component: an ara::com runtime with the
// modified (tagged) binding plus a reactor environment that executes the
// component's logic as a process on the simulated platform. Each SWC is
// its own program, mirroring the AP deployment model where every software
// component maps to an OS process.
type SWC struct {
	runtime *ara.Runtime
	binding *Binding

	name    string
	started bool
	runErr  error
}

// NewSWC creates a DEAR software component on the host. The ara config's
// Tagged flag is forced on (DEAR requires the modified binding).
func NewSWC(host *simnet.Host, cfg ara.Config) (*SWC, error) {
	cfg.Tagged = true
	rt, err := ara.NewRuntime(host, cfg)
	if err != nil {
		return nil, err
	}
	s := &SWC{runtime: rt, name: cfg.Name}
	s.binding = AttachBinding(rt)
	return s, nil
}

// Runtime returns the component's ara::com runtime.
func (s *SWC) Runtime() *ara.Runtime { return s.runtime }

// Err returns the error from the reactor run, if any (valid once the
// program has terminated).
func (s *SWC) Err() error { return s.runErr }

// Start spawns the component's reactor program as a platform process.
// build assembles the program (creating reactors, transactors and
// connections); it runs inside the process at current simulated time.
// The program stops after timeout of logical time (zero = never); its
// scheduler stays alive while the event queue is empty, since a DEAR
// component is driven by physical actions, and it honours the
// physical-time barrier that safe-to-process relies on. Returns
// immediately; the program runs as the kernel advances.
func (s *SWC) Start(timeout logical.Duration, build func(env *reactor.Environment) error) {
	if s.started {
		panic("core: SWC " + s.name + " already started")
	}
	s.started = true
	k := s.runtime.Kernel()
	k.Spawn(s.name+".reactor", func(p *des.Process) {
		env := reactor.NewEnvironment(reactor.Options{
			Clock:     reactor.NewSimClock(p, s.runtime.Host().Clock()),
			Timeout:   timeout,
			KeepAlive: true,
		})
		if err := build(env); err != nil {
			s.runErr = fmt.Errorf("core: building %s: %w", s.name, err)
			return
		}
		s.runErr = env.Run()
	})
}
