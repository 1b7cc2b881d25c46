package exp

import (
	"slices"

	"repro/internal/apd"
	"repro/internal/logical"
	"repro/internal/metrics"
)

// LatencyComparison contrasts the end-to-end latency profiles of the two
// brake-assistant implementations (extension study E8): DEAR pays a
// fixed, *bounded* logical delay (the sum of deadlines and latency
// allowances), whereas the baseline's latency is lower on average but
// unbounded in variability — "the trade-off between end-to-end latency
// and error rate becomes apparent" (Section IV-B).
type LatencyComparison struct {
	Frames int

	BaselineMean, BaselineP99, BaselineMax logical.Duration
	BaselineSpread                         logical.Duration // max - min
	BaselineErrors                         uint64

	DearMean, DearP99, DearMax logical.Duration
	DearSpread                 logical.Duration
	DearErrors                 uint64
}

// Table renders the comparison.
func (r *LatencyComparison) Table() *metrics.Table {
	t := metrics.NewTable("implementation", "mean", "p99", "max", "spread", "errors")
	t.Row("baseline (stock APD)", r.BaselineMean.String(), r.BaselineP99.String(),
		r.BaselineMax.String(), r.BaselineSpread.String(), r.BaselineErrors)
	t.Row("DEAR (deterministic)", r.DearMean.String(), r.DearP99.String(),
		r.DearMax.String(), r.DearSpread.String(), r.DearErrors)
	return t
}

// RunLatencyComparison runs both implementations on the same workload
// and summarizes their capture-to-decision latency distributions.
func RunLatencyComparison(seed uint64, frames int) (*LatencyComparison, error) {
	b, err := apd.NewBaseline(seed, apd.DefaultBaselineConfig(frames))
	if err != nil {
		return nil, err
	}
	bc := b.Run()

	d, err := apd.NewDeterministic(seed, apd.DefaultDeterministicConfig(frames))
	if err != nil {
		return nil, err
	}
	dc := d.Run()

	res := &LatencyComparison{Frames: frames}
	res.BaselineErrors = bc.TotalErrors()
	res.DearErrors = dc.TotalErrors()

	fill := func(lats []logical.Duration, mean, p99, max, spread *logical.Duration) {
		var s metrics.Stream
		for _, l := range lats {
			s.Add(float64(l))
		}
		if s.N() == 0 {
			return
		}
		sorted := slices.Sorted(slices.Values(lats))
		*mean = logical.Duration(s.Mean())
		*p99 = sorted[99*(len(sorted)-1)/100] // the exact rank-⌊0.99·(n−1)⌋ sample
		*max = logical.Duration(s.Max())
		*spread = logical.Duration(s.Max() - s.Min())
	}
	fill(b.Latencies, &res.BaselineMean, &res.BaselineP99, &res.BaselineMax, &res.BaselineSpread)
	fill(d.Latencies, &res.DearMean, &res.DearP99, &res.DearMax, &res.DearSpread)
	return res, nil
}
