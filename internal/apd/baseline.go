package apd

import (
	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/simnet"
)

// BaselineConfig parameterizes the stock APD brake assistant.
type BaselineConfig struct {
	// Frames to capture (the paper uses 100 000 per experiment instance).
	Frames int
	// Period of the camera and of every periodic callback (50ms in APD).
	Period logical.Duration
	// PreExecMean/CVExecMean are the mean execution times of the two
	// compute stages; ExecSigma is their Gaussian jitter.
	PreExecMean logical.Duration
	CVExecMean  logical.Duration
	ExecSigma   logical.Duration
	// TimerJitterSigma models OS timer activation jitter.
	TimerJitterSigma logical.Duration
	// CameraJitterSigma models capture-period jitter at the provider.
	CameraJitterSigma logical.Duration
	// DriftSigmaPPB is the per-platform oscillator drift distribution;
	// each platform draws its drift from N(0, DriftSigmaPPB).
	DriftSigmaPPB float64
	// SettleTime before the camera starts (service discovery warm-up).
	SettleTime logical.Duration
	// Faults installs a deterministic fault schedule on the network
	// (experiment E11); nil leaves the network fault-free, as in Figure 5.
	// TestRunsMatchPinnedDigests pins runs with and without a plan.
	Faults *simnet.FaultPlan
	// SplitPlatforms deploys Computer Vision and EBA on a third platform
	// (mirroring DeterministicConfig.SplitPlatforms), so the Pre→CV event
	// notifications cross the switched network — and any installed fault
	// plan. This is the deployment under which the stock design's silent
	// corruption becomes network-induced: independently dropped or
	// reordered frame/lane notifications desynchronize CV's one-slot
	// input buffers, and CV computes on the mismatched pair anyway.
	SplitPlatforms bool
}

// DefaultBaselineConfig mirrors the APD deployment: 50ms period and
// compute stages that fit within the period.
func DefaultBaselineConfig(frames int) BaselineConfig {
	return BaselineConfig{
		Frames:            frames,
		Period:            50 * logical.Millisecond,
		PreExecMean:       18 * logical.Millisecond,
		CVExecMean:        20 * logical.Millisecond,
		ExecSigma:         1200 * logical.Microsecond,
		TimerJitterSigma:  300 * logical.Microsecond,
		CameraJitterSigma: 500 * logical.Microsecond,
		DriftSigmaPPB:     25_000, // ±25 ppm crystals
		SettleTime:        300 * logical.Millisecond,
	}
}

// oneSlot is the single-slot input buffer of the stock APD components:
// the event handler stores the most recent datum, a periodic callback
// consumes it. Data is silently overwritten when the reader is too slow
// or the writer too fast — the root cause analyzed in the paper.
type oneSlot[T any] struct {
	v    T
	full bool
}

func (s *oneSlot[T]) put(v T) {
	s.v = v
	s.full = true
}

func (s *oneSlot[T]) take() (T, bool) {
	var zero T
	if !s.full {
		return zero, false
	}
	v := s.v
	s.v = zero
	s.full = false
	return v, true
}

// Baseline is the assembled nondeterministic brake assistant.
type Baseline struct {
	Kernel   *des.Kernel
	Net      *simnet.Network
	Counters ErrorCounters
	// BrakeSeq records the EBA decisions (seq, brake) in processing
	// order, used to compare behaviour across runs.
	BrakeSeq []BrakeCmd
	// Latencies are the end-to-end physical delays from frame capture to
	// brake decision for the frames that made it through.
	Latencies []logical.Duration

	horizon logical.Time
}

// NewBaseline builds the two-platform deployment: Video Provider on
// platform 1, the remaining four SWCs on platform 2, connected through a
// switch (Figure 4).
func NewBaseline(seed uint64, cfg BaselineConfig) (*Baseline, error) {
	// Instance-stream draws run drift1, drift2, the three activation
	// phases, then drift3 only when splitting; TestRunsMatchPinnedDigests
	// pins that order byte-for-byte.
	k := des.NewKernel(seed)
	instRand := k.Rand("apd.instance")
	drifting := func() *des.LocalClock {
		return k.NewLocalClock(des.ClockConfig{DriftPPB: int64(instRand.Norm(0, cfg.DriftSigmaPPB))}, nil)
	}
	n := newNetwork(k, cfg.Faults)
	p1 := n.AddHost("platform1", drifting())
	p2 := n.AddHost("platform2", drifting())

	b := &Baseline{Kernel: k, Net: n}
	b.horizon = logical.Time(cfg.SettleTime) +
		logical.Time(int64(cfg.Frames+20)*int64(cfg.Period)*1001/1000)

	// Random activation phases per component — the quantity the paper
	// identifies as dominating the error rate ("the error rate is
	// strongly influenced by the offset between the individual periodic
	// callbacks of the SWCs, which depends on when SWCs are started").
	phase := func() logical.Duration {
		return logical.Duration(instRand.Range(0, int64(cfg.Period)-1))
	}
	phasePre, phaseCV, phaseEBA := phase(), phase(), phase()

	// The optional third platform hosts CV and EBA. Its drift is drawn
	// only when splitting, and after the phase draws, so splitting
	// changes no draw of the two-platform deployment.
	p3 := p2
	if cfg.SplitPlatforms {
		p3 = n.AddHost("platform3", drifting())
	}

	// --- Video Adapter (platform 2): receives raw camera frames and
	// publishes them as AP events. Sporadic, no periodic callback.
	vaRT, err := ara.NewRuntime(p2, ara.Config{Name: "video-adapter"})
	if err != nil {
		return nil, err
	}
	vaSk, err := vaRT.NewSkeleton(VideoFeedIface, PipelineInstance)
	if err != nil {
		return nil, err
	}
	vaIn := p2.MustBind(VideoPort)
	vaIn.OnReceive(func(dg simnet.Datagram) {
		if err := vaSk.Notify("frame", dg.Payload); err != nil {
			panic(err)
		}
	})
	k.At(0, func() { vaSk.Offer() })

	// --- Preprocessing (platform 2).
	preRT, err := ara.NewRuntime(p2, ara.Config{Name: "preprocessing"})
	if err != nil {
		return nil, err
	}
	preSk, err := preRT.NewSkeleton(PreOutIface, PipelineInstance)
	if err != nil {
		return nil, err
	}
	k.At(0, func() { preSk.Offer() })
	var preBuf oneSlot[[]byte]
	preRT.FindService(VideoFeedIface, PipelineInstance, func(px *ara.Proxy) {
		err := px.Subscribe("frame", func(c *ara.Ctx, payload []byte) {
			preBuf.put(payload)
		})
		if err != nil {
			panic(err)
		}
	})
	preRand := k.Rand("apd.pre")
	var preTracker seqTracker
	preRT.Every(cfg.SettleTime+phasePre, cfg.Period, func(c *ara.Ctx) {
		c.Exec(absJitter(preRand, cfg.TimerJitterSigma))
		payload, ok := preBuf.take()
		if !ok {
			return // silently wait for the next trigger (stock behaviour)
		}
		frame, err := UnmarshalFrame(payload)
		if err != nil {
			panic(err)
		}
		b.Counters.DroppedPre += preTracker.observe(frame.Seq)
		c.Exec(gaussExec(preRand, cfg.PreExecMean, cfg.ExecSigma))
		lane := Preprocess(frame)
		if err := preSk.Notify("lane", MarshalLane(lane)); err != nil {
			panic(err)
		}
		if err := preSk.Notify("frame", payload); err != nil {
			panic(err)
		}
	})

	// --- Computer Vision (platform 2): two one-slot inputs.
	cvRT, err := ara.NewRuntime(p3, ara.Config{Name: "computer-vision"})
	if err != nil {
		return nil, err
	}
	cvSk, err := cvRT.NewSkeleton(CVOutIface, PipelineInstance)
	if err != nil {
		return nil, err
	}
	k.At(0, func() { cvSk.Offer() })
	var cvFrameBuf, cvLaneBuf oneSlot[[]byte]
	cvRT.FindService(PreOutIface, PipelineInstance, func(px *ara.Proxy) {
		if err := px.Subscribe("frame", func(c *ara.Ctx, payload []byte) {
			cvFrameBuf.put(payload)
		}); err != nil {
			panic(err)
		}
		if err := px.Subscribe("lane", func(c *ara.Ctx, payload []byte) {
			cvLaneBuf.put(payload)
		}); err != nil {
			panic(err)
		}
	})
	cvRand := k.Rand("apd.cv")
	var cvTracker seqTracker
	cvRT.Every(cfg.SettleTime+phaseCV, cfg.Period, func(c *ara.Ctx) {
		c.Exec(absJitter(cvRand, cfg.TimerJitterSigma))
		fp, okF := cvFrameBuf.take()
		lp, okL := cvLaneBuf.take()
		if !okF || !okL {
			return
		}
		frame, err := UnmarshalFrame(fp)
		if err != nil {
			panic(err)
		}
		lane, err := UnmarshalLane(lp)
		if err != nil {
			panic(err)
		}
		b.Counters.DroppedCV += cvTracker.observe(frame.Seq)
		if frame.Seq != lane.Seq {
			b.Counters.MismatchCV++
			// Stock behaviour: nothing stops the pipeline — vehicle
			// detection runs on the mismatched pair and EBA later decides
			// on the corrupt result. This is the silent-corruption path
			// the DEAR variant structurally refuses.
			b.Counters.CorruptProcessed++
		}
		c.Exec(gaussExec(cvRand, cfg.CVExecMean, cfg.ExecSigma))
		vehicles := DetectVehicles(frame, lane)
		if err := cvSk.Notify("vehicles", MarshalVehicles(vehicles)); err != nil {
			panic(err)
		}
	})

	// --- EBA (platform 2).
	ebaRT, err := ara.NewRuntime(p3, ara.Config{Name: "eba"})
	if err != nil {
		return nil, err
	}
	var ebaBuf oneSlot[[]byte]
	ebaRT.FindService(CVOutIface, PipelineInstance, func(px *ara.Proxy) {
		if err := px.Subscribe("vehicles", func(c *ara.Ctx, payload []byte) {
			ebaBuf.put(payload)
		}); err != nil {
			panic(err)
		}
	})
	ebaRand := k.Rand("apd.eba")
	var ebaTracker seqTracker
	var ebaState EBAState
	ebaRT.Every(cfg.SettleTime+phaseEBA, cfg.Period, func(c *ara.Ctx) {
		c.Exec(absJitter(ebaRand, cfg.TimerJitterSigma))
		payload, ok := ebaBuf.take()
		if !ok {
			return
		}
		vehicles, err := UnmarshalVehicles(payload)
		if err != nil {
			panic(err)
		}
		b.Counters.DroppedEBA += ebaTracker.observe(vehicles.Seq)
		cmd := ebaState.Decide(vehicles)
		b.Counters.FramesProcessed++
		b.BrakeSeq = append(b.BrakeSeq, *cmd)
		b.Latencies = append(b.Latencies, logical.Duration(c.Now()-vehicles.Capture))
	})

	// --- Video Provider (platform 1): the camera, sending one frame
	// roughly every 50ms over a proprietary (raw datagram) protocol.
	startCamera(k, p1, p2, cfg.Frames, cfg.Period, cfg.CameraJitterSigma, cfg.SettleTime, &b.Counters.FramesSent)

	return b, nil
}

// newNetwork is the shared network of both brake-assistant variants:
// Ethernet-scale base latency, ~1 Gbit/s serialization and
// submillisecond jitter, behind a 20µs store-and-forward switch.
func newNetwork(k *des.Kernel, faults *simnet.FaultPlan) *simnet.Network {
	return simnet.NewNetwork(k, simnet.Config{
		DefaultLatency: &simnet.JitterLatency{
			Base:    100 * logical.Microsecond,
			PerByte: 8,
			Sigma:   60 * logical.Microsecond,
			Rng:     k.Rand("apd.net"),
		},
		SwitchDelay: 20 * logical.Microsecond,
		Faults:      faults,
	})
}

// startCamera installs the shared camera of both variants: the Video
// Provider on src sends frames to the Video Adapter's port on dst over
// a proprietary (raw datagram) protocol, paced by src's local clock
// with Gaussian capture jitter, starting after settle. The camera is a
// chain of transient events, not a process: its first event reads the
// start time, and each frame whose capture time lies ahead posts the
// next step at that time. Each frame is rendered into one reused wire
// buffer (the network copies a datagram on send) and counted in *sent.
func startCamera(k *des.Kernel, src, dst *simnet.Host, frames int, period, jitter, settle logical.Duration, sent *uint64) {
	k.Post(logical.Time(settle), cameraStart, &camera{
		k: k, out: src.MustBind(0), rng: k.Rand("apd.camera"), clock: src.Clock(),
		to:     simnet.Addr{Host: dst.ID(), Port: VideoPort},
		frames: frames, period: period, jitter: jitter, sent: sent,
	})
}

// camera is the Video Provider's state between its events.
type camera struct {
	k              *des.Kernel
	out            *simnet.Endpoint
	rng            *des.Rand
	clock          *des.LocalClock
	to             simnet.Addr
	scene          Scene
	wire           []byte
	start          logical.Time // local clock reading at the first event
	i, frames      int          // next frame to send, of frames
	period, jitter logical.Duration
	sent           *uint64
}

// cameraStart is the camera's first event.
func cameraStart(a any) {
	c := a.(*camera)
	c.start = c.clock.Now()
	c.advance()
}

// cameraFrame fires at a frame's capture time: it sends the frame,
// then goes on to the next.
func cameraFrame(a any) {
	c := a.(*camera)
	c.send()
	c.advance()
}

// advance draws each next frame's capture jitter and sends the frames
// already due at once, until one lies ahead: that one gets an event at
// its capture time. After the last frame it posts nothing.
func (c *camera) advance() {
	for c.i < c.frames {
		next := c.start.Add(logical.Duration(c.i)*c.period +
			logical.Duration(c.rng.Norm(0, float64(c.jitter))))
		if g := c.clock.GlobalAt(next); g > c.k.Now() {
			c.k.Post(g, cameraFrame, c)
			return
		}
		c.send()
	}
}

// send renders frame i at the current time and sends it.
func (c *camera) send() {
	c.wire = c.scene.generateWire(c.wire, c.k.Now())
	*c.sent++
	c.out.Send(c.to, c.wire)
	c.i++
}

func gaussExec(r *des.Rand, mean, sigma logical.Duration) logical.Duration {
	d := logical.Duration(r.Norm(float64(mean), float64(sigma)))
	if d < mean/2 {
		d = mean / 2
	}
	return d
}

func absJitter(r *des.Rand, sigma logical.Duration) logical.Duration {
	if sigma <= 0 {
		return 0
	}
	d := logical.Duration(r.Norm(0, float64(sigma)))
	if d < 0 {
		d = -d
	}
	return d
}

// Run executes the experiment to completion and returns the counters.
// The kernel is shut down afterwards, unwinding all simulated processes;
// the Baseline's recorded results remain readable.
func (b *Baseline) Run() *ErrorCounters {
	b.Kernel.Run(b.horizon)
	b.Kernel.Shutdown()
	return &b.Counters
}
