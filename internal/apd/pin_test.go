package apd_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"repro/internal/apd"
	"repro/internal/des"
	"repro/internal/exp"
	"repro/internal/logical"
	"repro/internal/simnet"
)

// pinFrames and pinSeeds size the byte pin: long enough that the E11
// fault windows (a fraction of the run) all fall inside it, short
// enough that all 16 runs take a fraction of a second.
const pinFrames = 300

var pinSeeds = []uint64{1, 7}

// pinDigests are the SHA-256 digests of every brake-assistant run the
// pin covers (the Figure 5 and E4 goldens). A change that alters any
// draw, label, host ID, event order or delivered datagram of a run
// changes its digest. Regenerate only for a deliberate behaviour
// change, never for a refactor.
var pinDigests = map[string]string{
	"baseline/split=false/faults=false/seed=1": "5f48a4b218c04d1176f7a5ad23754712b27cbdc51a1541e30828a7f7ec67db77",
	"baseline/split=false/faults=false/seed=7": "762d717db63cbb0887ed77df4f2ede8197f2695b9712cf276fd229a0188f313d",
	"baseline/split=false/faults=true/seed=1":  "0d06c6878ffe7980fdf0753a254be2204f7870e3af0ec51896ef54978f390446",
	"baseline/split=false/faults=true/seed=7":  "b3d20b3a64d14836b0bb10979fdec31eb7579a603e3b59a14ef2af3115f01c51",
	"baseline/split=true/faults=false/seed=1":  "d7a3708ef02cbcbf51454a4951141f97c299e8db2ad3fb1d07b3b32c54767a24",
	"baseline/split=true/faults=false/seed=7":  "2d9c570dfd2e5a3224553a4f04904d5f0f9e1d3ffb1b0fcded13deceba20f248",
	"baseline/split=true/faults=true/seed=1":   "def3643b24cda18a532d763e9a6096359ccc17ffd870e18f350c9af5a1310d99",
	"baseline/split=true/faults=true/seed=7":   "8e28208a280e8db3381877548c8588d61effcc837bd7ebcc7ad812a516fcfd4e",
	"dear/default/seed=1":                      "aa33a9368e02db1d087c10ec4c6d483e965bd6469c9be05f3e18515cf3e0c977",
	"dear/default/seed=7":                      "e137017d3c1f4174581f683e3734b6e23e44f1e03ebe87f865da816535dc7082",
	"dear/scale=0.7/seed=1":                    "e1e12d31f32189ebfd0db0c8423154f8026784ddaa313b6811a7ab7ff4b4c28d",
	"dear/scale=0.7/seed=7":                    "d882dc29c63c6c896bfffc86328ca7532b5be2415bce52bc56e1ba032a1338e9",
	"dear/split+faults/seed=1":                 "26bbbee8a0d83d2b1e05f96bfebb0fb143fa17100ec9a0c0a26a55874856e868",
	"dear/split+faults/seed=7":                 "69341bcca79ea39d3824bc37a20ab2a320be8c7486ab7be4fbab86958f56104e",
	"dear/split/seed=1":                        "1352edac2548557aec012d92c6c02817a6cc5b1778640c58dc947bb999f320dc",
	"dear/split/seed=7":                        "09e741b24ce438bf6283646aad8a24de9307b29dc9c10cfcc729a5c3667abfa7",
}

// pinRun is the observable record of one run.
type pinRun struct {
	counters  *apd.ErrorCounters
	brakes    []apd.BrakeCmd
	latencies []logical.Duration
	tags      []logical.Tag
	kernel    *des.Kernel
	net       *simnet.Network
}

func (r pinRun) digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n", r.counters)
	u64 := func(v uint64) {
		var b [8]byte
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(uint64(len(r.brakes)))
	for _, c := range r.brakes {
		u64(uint64(c.Seq))
		if c.Brake {
			u64(1)
		} else {
			u64(0)
		}
		u64(math.Float64bits(c.Force))
	}
	u64(uint64(len(r.latencies)))
	for _, l := range r.latencies {
		u64(uint64(l))
	}
	u64(uint64(len(r.tags)))
	for _, t := range r.tags {
		u64(uint64(t.Time))
		u64(uint64(t.Microstep))
	}
	u64(r.kernel.EventsFired())
	u64(r.net.Delivered())
	return hex.EncodeToString(h.Sum(nil))
}

// pinCases builds every pinned run: the baseline with split off/on ×
// the E11 pipeline fault plan off/on, and DEAR default, split,
// DeadlineScale 0.7 and split under faults, each at every pin seed.
func pinCases() map[string]func(seed uint64) (pinRun, error) {
	faults := exp.DefaultPipelineFaultPlan(pinFrames)
	cases := map[string]func(seed uint64) (pinRun, error){}
	for _, split := range []bool{false, true} {
		for _, faulted := range []bool{false, true} {
			cfg := apd.DefaultBaselineConfig(pinFrames)
			cfg.SplitPlatforms = split
			if faulted {
				cfg.Faults = faults
			}
			cases[fmt.Sprintf("baseline/split=%v/faults=%v", split, faulted)] = func(seed uint64) (pinRun, error) {
				b, err := apd.NewBaseline(seed, cfg)
				if err != nil {
					return pinRun{}, err
				}
				return pinRun{b.Run(), b.BrakeSeq, b.Latencies, nil, b.Kernel, b.Net}, nil
			}
		}
	}
	scaled := apd.DefaultDeterministicConfig(pinFrames)
	scaled.DeadlineScale = 0.7
	splitFaults := apd.SplitDeterministicConfig(pinFrames)
	splitFaults.Faults = faults
	for name, cfg := range map[string]apd.DeterministicConfig{
		"dear/default":      apd.DefaultDeterministicConfig(pinFrames),
		"dear/split":        apd.SplitDeterministicConfig(pinFrames),
		"dear/scale=0.7":    scaled,
		"dear/split+faults": splitFaults,
	} {
		cases[name] = func(seed uint64) (pinRun, error) {
			d, err := apd.NewDeterministic(seed, cfg)
			if err != nil {
				return pinRun{}, err
			}
			return pinRun{d.Run(), d.BrakeSeq, d.Latencies, d.TagTrace, d.Kernel, d.Net}, nil
		}
	}
	return cases
}

// TestRunsMatchPinnedDigests is the byte pin of the brake assistant:
// every pinned run's counters, brake decisions, latencies, tag trace,
// fired-event count and delivered-datagram count must hash to the
// digest recorded in pinDigests.
func TestRunsMatchPinnedDigests(t *testing.T) {
	for name, run := range pinCases() {
		for _, seed := range pinSeeds {
			key := fmt.Sprintf("%s/seed=%d", name, seed)
			r, err := run(seed)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			if got := r.digest(); got != pinDigests[key] {
				t.Errorf("%s: digest %s, pinned %s", key, got, pinDigests[key])
			}
		}
	}
	if want := len(pinCases()) * len(pinSeeds); len(pinDigests) != want {
		t.Errorf("%d pinned digests, want %d", len(pinDigests), want)
	}
}
