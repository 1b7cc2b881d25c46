// Package exp contains one entry point per experiment in the paper's
// evaluation, plus the extension studies listed in DESIGN.md. The cmd/
// tools and perfbench are thin wrappers around this package.
package exp

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/apd"
	"repro/internal/ara"
	"repro/internal/des"
	"repro/internal/logical"
	"repro/internal/metrics"
	"repro/internal/simnet"
	"repro/internal/someip"
)

// --- Experiment E1: Figure 1 — nondeterministic client/server ---

// counterIface is the Figure 1 service: a state variable manipulated by
// set_value/add/get_value.
var counterIface = &ara.ServiceInterface{
	Name:  "Counter",
	ID:    0x1100,
	Major: 1,
	Methods: []ara.MethodSpec{
		{ID: 1, Name: "set_value"},
		{ID: 2, Name: "add"},
		{ID: 3, Name: "get_value"},
	},
}

// Figure1Config tunes the Figure 1 reproduction.
type Figure1Config struct {
	// Trials of the three-call sequence.
	Trials int
	// Workers in the server's thread pool.
	Workers int
	// DispatchMean is the mean exponential thread-dispatch latency.
	DispatchMean logical.Duration
	// IssueGap is the client-side delay between consecutive non-blocking
	// calls (instruction/marshalling cost).
	IssueGap logical.Duration
	// Blocking serializes the calls by waiting on each future (the fix
	// discussed in the paper) — the distribution collapses to P(3)=1.
	Blocking bool
}

// DefaultFigure1Config mirrors the paper's setup.
func DefaultFigure1Config(trials int) Figure1Config {
	return Figure1Config{
		Trials:       trials,
		Workers:      4,
		DispatchMean: 50 * logical.Microsecond,
		IssueGap:     20 * logical.Microsecond,
	}
}

// Figure1Result is the outcome distribution over printed values 0..3.
type Figure1Result struct {
	Trials int
	// Counts[v] = number of trials that printed v.
	Counts [4]int
}

// Probability returns P(printed value = v).
func (r *Figure1Result) Probability(v int) float64 {
	if r.Trials == 0 {
		return 0
	}
	return float64(r.Counts[v]) / float64(r.Trials)
}

// Table renders the distribution like the bar chart in Figure 1.
func (r *Figure1Result) Table() *metrics.Table {
	t := metrics.NewTable("printed value", "count", "probability")
	for v := 0; v <= 3; v++ {
		t.Row(v, r.Counts[v], r.Probability(v))
	}
	return t
}

func u32be(v uint32) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return b[:]
}

// RunFigure1 reproduces the client/server experiment of Figure 1: the
// client issues set_value(1), add(2), get_value() without waiting for
// futures; the server maps each invocation to a worker thread with
// mutual exclusion but scheduler-determined order.
func RunFigure1(seed uint64, cfg Figure1Config) (*Figure1Result, error) {
	k := des.NewKernel(seed)
	n := simnet.NewNetwork(k, simnet.Config{})
	h1 := n.AddHost("server", k.NewLocalClock(des.ClockConfig{}, nil))
	h2 := n.AddHost("client", k.NewLocalClock(des.ClockConfig{}, nil))

	dispatch := cfg.DispatchMean
	server, err := ara.NewRuntime(h1, ara.Config{Name: "server", Exec: ara.ExecConfig{
		Workers:    cfg.Workers,
		Serialized: true,
		DispatchJitter: func(r *des.Rand) logical.Duration {
			return logical.Duration(r.Exp(float64(dispatch)))
		},
	}})
	if err != nil {
		return nil, err
	}
	client, err := ara.NewRuntime(h2, ara.Config{Name: "client"})
	if err != nil {
		return nil, err
	}

	var value uint32
	sk, err := server.NewSkeleton(counterIface, 1)
	if err != nil {
		return nil, err
	}
	must := func(e error) {
		if e != nil {
			panic(e)
		}
	}
	must(sk.Handle("set_value", func(c *ara.Ctx, args []byte) ([]byte, error) {
		value = binary.BigEndian.Uint32(args)
		return nil, nil
	}))
	must(sk.Handle("add", func(c *ara.Ctx, args []byte) ([]byte, error) {
		value += binary.BigEndian.Uint32(args)
		return nil, nil
	}))
	must(sk.Handle("get_value", func(c *ara.Ctx, args []byte) ([]byte, error) {
		return u32be(value), nil
	}))
	k.At(0, func() { sk.Offer() })

	result := &Figure1Result{Trials: cfg.Trials}
	var runErr error
	client.Spawn("main", func(c *ara.Ctx) {
		px, err := client.FindServiceSync(c.Process(), counterIface, 1, logical.Second)
		if err != nil {
			runErr = err
			return
		}
		for trial := 0; trial < cfg.Trials; trial++ {
			// Reset the server state between trials (blocking).
			if _, err := px.Call("set_value", u32be(0)).Get(c.Process()); err != nil {
				runErr = err
				return
			}
			c.Exec(logical.Millisecond) // drain the pool between trials
			var got []byte
			if cfg.Blocking {
				if _, err := px.Call("set_value", u32be(1)).Get(c.Process()); err != nil {
					runErr = err
					return
				}
				if _, err := px.Call("add", u32be(2)).Get(c.Process()); err != nil {
					runErr = err
					return
				}
				got, err = px.Call("get_value", nil).Get(c.Process())
			} else {
				// The Figure 1 client: non-blocking calls in sequence.
				px.Call("set_value", u32be(1))
				c.Exec(cfg.IssueGap)
				px.Call("add", u32be(2))
				c.Exec(cfg.IssueGap)
				got, err = px.Call("get_value", nil).Get(c.Process())
			}
			if err != nil {
				runErr = err
				return
			}
			v := binary.BigEndian.Uint32(got)
			if v > 3 {
				runErr = fmt.Errorf("exp: impossible printed value %d", v)
				return
			}
			result.Counts[v]++
			c.Exec(logical.Millisecond)
		}
	})
	k.RunAll()
	k.Shutdown()
	if runErr != nil {
		return nil, runErr
	}
	return result, nil
}

// --- Experiment E3: Figure 5 — baseline error prevalence ---

// InstanceResult is one bar of Figure 5.
type InstanceResult struct {
	Instance int
	Seed     uint64
	Counters apd.ErrorCounters
}

// Figure5Result aggregates the experiment instances, sorted by error
// rate as in the paper's plot.
type Figure5Result struct {
	Frames    int
	Instances []InstanceResult
}

// Stats returns (min, mean, max) prevalence.
func (r *Figure5Result) Stats() (min, mean, max float64) {
	var s metrics.Stream
	for _, inst := range r.Instances {
		s.Add(inst.Counters.Prevalence())
	}
	return s.Min(), s.Mean(), s.Max()
}

// Table renders the per-instance breakdown like Figure 5.
func (r *Figure5Result) Table() *metrics.Table {
	t := metrics.NewTable("instance", "seed", "prevalence %",
		"dropped(Pre)", "dropped(CV)", "mismatch(CV)", "dropped(EBA)")
	for i, inst := range r.Instances {
		c := inst.Counters
		t.Row(i+1, inst.Seed, c.Prevalence(), c.DroppedPre, c.DroppedCV, c.MismatchCV, c.DroppedEBA)
	}
	return t
}

// RunFigure5 executes the baseline brake assistant for the given number
// of experiment instances, each with a fresh seed (phases, drift,
// jitter), and sorts the results by error rate.
func RunFigure5(seedBase uint64, instances, frames int) (*Figure5Result, error) {
	res := &Figure5Result{Frames: frames}
	for i := 0; i < instances; i++ {
		seed := seedBase + uint64(i)
		b, err := apd.NewBaseline(seed, apd.DefaultBaselineConfig(frames))
		if err != nil {
			return nil, err
		}
		c := b.Run()
		res.Instances = append(res.Instances, InstanceResult{Instance: i, Seed: seed, Counters: *c})
	}
	sort.Slice(res.Instances, func(a, b int) bool {
		return res.Instances[a].Counters.Prevalence() < res.Instances[b].Counters.Prevalence()
	})
	return res, nil
}

// --- Experiment E4: deterministic brake assistant (Section IV-B) ---

// DeterministicResult summarizes a DEAR pipeline run.
type DeterministicResult struct {
	Frames       int
	Counters     apd.ErrorCounters
	LatencyMean  logical.Duration
	LatencyMax   logical.Duration
	BrakeOns     int
	BehaviorHash uint64
}

// RunDeterministic executes the DEAR brake assistant once.
func RunDeterministic(seed uint64, frames int) (*DeterministicResult, error) {
	d, err := apd.NewDeterministic(seed, apd.DefaultDeterministicConfig(frames))
	if err != nil {
		return nil, err
	}
	c := d.Run()
	res := &DeterministicResult{Frames: frames, Counters: *c}
	var lat metrics.Stream
	for _, l := range d.Latencies {
		lat.Add(float64(l))
	}
	if lat.N() > 0 {
		res.LatencyMean = logical.Duration(lat.Mean())
		res.LatencyMax = logical.Duration(lat.Max())
	}
	res.BehaviorHash = hashBrakes(d.BrakeSeq)
	for _, cmd := range d.BrakeSeq {
		if cmd.Brake {
			res.BrakeOns++
		}
	}
	return res, nil
}

const fnvOffset uint64 = 14695981039346656037

func fnvMix(h, v uint64) uint64 {
	h ^= v
	h *= 1099511628211
	return h
}

func hashBrakes(seq []apd.BrakeCmd) uint64 {
	h := fnvOffset
	for _, cmd := range seq {
		h = fnvMix(h, uint64(cmd.Seq))
		if cmd.Brake {
			h = fnvMix(h, 1)
		} else {
			h = fnvMix(h, 0)
		}
	}
	return h
}

// RunDeterminismCheck runs the DEAR pipeline under several physical
// seeds and verifies that the behaviour (brake decision sequence) is
// identical and error-free in every run (see checkDeterministic). It
// returns the per-seed results.
func RunDeterminismCheck(seedBase uint64, seeds, frames int) ([]*DeterministicResult, error) {
	var out []*DeterministicResult
	for i := 0; i < seeds; i++ {
		r, err := RunDeterministic(seedBase+uint64(i), frames)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, checkDeterministic(out)
}

// checkDeterministic is E4's gate. It fails on fewer than two runs, on
// any run with an error, no processed frame or no braking decision, on a
// behaviour hash that differs from run 0's, and when every run has run
// 0's latency mean and max: seeds that perturb nothing show nothing.
func checkDeterministic(runs []*DeterministicResult) error {
	if len(runs) < 2 {
		return fmt.Errorf("exp: %d run(s); determinism needs at least 2", len(runs))
	}
	perturbed := false
	for i, r := range runs {
		switch {
		case r.Counters.TotalErrors() != 0:
			return fmt.Errorf("exp: seed %d: %d errors", i, r.Counters.TotalErrors())
		case r.Counters.FramesProcessed == 0 || r.BrakeOns == 0:
			return fmt.Errorf("exp: seed %d: %d frames processed, %d braking decisions", i, r.Counters.FramesProcessed, r.BrakeOns)
		case r.BehaviorHash != runs[0].BehaviorHash:
			return fmt.Errorf("exp: behaviour diverged across physical seeds (seed %d)", i)
		}
		perturbed = perturbed || r.LatencyMean != runs[0].LatencyMean || r.LatencyMax != runs[0].LatencyMax
	}
	if !perturbed {
		return fmt.Errorf("exp: every seed had run 0's latency; the seeds perturbed nothing")
	}
	return nil
}

// --- Experiment E5: deadline scale / latency trade-off ---

// TradeoffPoint is one sweep point of the latency/error trade-off.
type TradeoffPoint struct {
	Scale          float64
	Violations     uint64
	ViolationRate  float64 // per frame sent
	FramesDropped  uint64
	LatencyMean    logical.Duration
	LatencyMax     logical.Duration
	FramesComplete uint64
}

// TradeoffResult is the full sweep.
type TradeoffResult struct {
	Frames int
	Points []TradeoffPoint
}

// Table renders the sweep.
func (r *TradeoffResult) Table() *metrics.Table {
	t := metrics.NewTable("deadline scale", "violations", "rate %", "mean latency", "max latency", "completed")
	for _, p := range r.Points {
		t.Row(fmt.Sprintf("%.2f", p.Scale), p.Violations,
			100*p.ViolationRate, p.LatencyMean.String(), p.LatencyMax.String(), p.FramesComplete)
	}
	return t
}

// RunTradeoff sweeps the deadline scale factor: smaller deadlines lower
// end-to-end latency but make sporadic (observable!) errors acceptable —
// the trade-off the paper describes at the end of Section IV-B.
func RunTradeoff(seed uint64, frames int, scales []float64) (*TradeoffResult, error) {
	res := &TradeoffResult{Frames: frames}
	for _, s := range scales {
		cfg := apd.DefaultDeterministicConfig(frames)
		cfg.DeadlineScale = s
		d, err := apd.NewDeterministic(seed, cfg)
		if err != nil {
			return nil, err
		}
		c := d.Run()
		p := TradeoffPoint{
			Scale:          s,
			Violations:     c.DeadlineViolations,
			FramesComplete: c.FramesProcessed,
			FramesDropped:  uint64(frames) - c.FramesProcessed,
		}
		if c.FramesSent > 0 {
			p.ViolationRate = float64(c.DeadlineViolations) / float64(c.FramesSent)
		}
		var lat metrics.Stream
		for _, l := range d.Latencies {
			lat.Add(float64(l))
		}
		if lat.N() > 0 {
			p.LatencyMean = logical.Duration(lat.Mean())
			p.LatencyMax = logical.Duration(lat.Max())
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// --- Experiment E6: tag trailer overhead (ablation) ---

// TagOverheadResult compares wire sizes and codec cost with and without
// the DEAR tag trailer.
type TagOverheadResult struct {
	PlainBytes  int
	TaggedBytes int
	// OverheadFraction = extra bytes / plain bytes for a typical frame
	// notification.
	OverheadFraction float64
}

// MeasureTagOverhead computes the wire-size overhead of the tag trailer
// for a typical brake-assistant frame message.
func MeasureTagOverhead() *TagOverheadResult {
	frame := (&apd.Scene{}).Generate(0)
	payload := apd.MarshalFrame(frame)
	plain := &someip.Message{Service: 1, Method: someip.EventID(1), Type: someip.TypeNotification, Payload: payload}
	tag := logical.Tag{Time: 123, Microstep: 1}
	tagged := &someip.Message{Service: 1, Method: someip.EventID(1), Type: someip.TypeNotification, Payload: payload, Tag: &tag}
	r := &TagOverheadResult{
		PlainBytes:  plain.WireSize(),
		TaggedBytes: tagged.WireSize(),
	}
	r.OverheadFraction = float64(r.TaggedBytes-r.PlainBytes) / float64(r.PlainBytes)
	return r
}
