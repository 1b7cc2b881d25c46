package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/des"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// World construction allocates per platform; a regression here is what
// turns a smaller trace ring from a win into a slower city build (the
// collector runs once more during Build when the build's garbage
// outgrows the heap the ring used to pad). A 500-platform city world,
// built but not run, must stay within the measured allocations per
// platform.
func TestBuildAllocsPerPlatform(t *testing.T) {
	const n = 500
	spec := CityPreset(n)
	spec.Seed = 1
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(spec); err != nil {
			t.Fatal(err)
		}
	})
	per := allocs / n
	t.Logf("%.1f allocations per platform", per)
	// 56.7 measured, 59.2 under the race detector, which allocates a
	// few objects of its own.
	const bound = 60.0
	if per > bound {
		t.Fatalf("Build allocates %.1f objects per platform, bound %.1f", per, bound)
	}
}

// The state a partition writes on every event — its kernel, its
// network and its trace recorder — must fill whole cache lines, or the
// allocator places one partition's next to another's on a shared line
// and every event bounces that line between the cores running them (a
// mesh_fed run then loses about 30% of its throughput, depending on
// where the build happened to place them). A size that is a multiple of the
// 64-byte line is its own allocator size class, so each object starts
// on a line boundary.
func TestPartitionStateFillsCacheLines(t *testing.T) {
	const line = 64
	k := des.NewKernel(1)
	net := simnet.NewNetwork(k, simnet.Config{})
	rec := trace.NewRecorder(16)
	heldObjects = []any{k, net, rec} // on the heap, as a built world's
	for _, c := range []struct {
		name string
		size uintptr
		addr uintptr
	}{
		{"des.Kernel", unsafe.Sizeof(*k), uintptr(unsafe.Pointer(k))},
		{"simnet.Network", unsafe.Sizeof(*net), uintptr(unsafe.Pointer(net))},
		{"trace.Recorder", unsafe.Sizeof(*rec), uintptr(unsafe.Pointer(rec))},
	} {
		if c.size%line != 0 || c.addr%line != 0 {
			t.Errorf("%s: %d bytes at %#x, want a multiple of %d bytes on a line boundary; adjust its padding field",
				c.name, c.size, c.addr, line)
		}
	}
}

// heldObjects makes the objects TestPartitionStateFillsCacheLines
// inspects escape to the heap.
var heldObjects []any

// StatsReport writes its digits with strconv instead of fmt. Its bytes
// must be those of the fmt format it replaced, on random rows with zero
// and extreme values, and a 5000-row report (a city's) with counters of
// a city's magnitude must allocate only its sized buffer.
func TestStatsReportMatchesFprintf(t *testing.T) {
	r := des.NewRand(7)
	pick := func(max uint64) uint64 {
		switch r.Uint64() % 4 {
		case 0:
			return 0
		case 1:
			return max
		}
		return r.Uint64() & max
	}
	rows := make([]PlatformStats, 5000)
	for i := range rows {
		rows[i] = PlatformStats{
			Calls:     int(pick(math.MaxInt)),
			Served:    int(pick(math.MaxInt)),
			Errors:    int(pick(math.MaxInt)),
			RespHash:  pick(math.MaxUint64),
			LatSumNs:  int64(pick(math.MaxInt64)),
			LatMaxNs:  int64(pick(math.MaxInt64)),
			NoiseHash: pick(math.MaxUint64),
		}
	}
	var want strings.Builder
	totalCalls, totalServed, totalErrors := 0, 0, 0
	for i, row := range rows {
		fmt.Fprintf(&want, "plat%02d calls=%d served=%d errs=%d resp=%016x latMeanNs=%d latMaxNs=%d noise=%016x\n",
			i, row.Calls, row.Served, row.Errors, row.RespHash, row.LatMeanNs(), row.LatMaxNs, row.NoiseHash)
		totalCalls += row.Calls
		totalServed += row.Served
		totalErrors += row.Errors
	}
	fmt.Fprintf(&want, "total calls=%d served=%d errs=%d\n", totalCalls, totalServed, totalErrors)
	if got := StatsReport(rows); got != want.String() {
		gl, wl := strings.Split(got, "\n"), strings.Split(want.String(), "\n")
		for i := range min(len(gl), len(wl)) {
			if gl[i] != wl[i] {
				t.Fatalf("line %d:\n got %s\nwant %s", i, gl[i], wl[i])
			}
		}
		t.Fatalf("got %d lines, want %d", len(gl), len(wl))
	}
	for i := range rows {
		rows[i].Calls, rows[i].Served, rows[i].Errors = int(r.Int63n(1000)), int(r.Int63n(1000)), int(r.Int63n(10))
		rows[i].LatSumNs, rows[i].LatMaxNs = r.Int63n(1e12), r.Int63n(1e8)
	}
	allocs := testing.AllocsPerRun(5, func() { StatsReport(rows) })
	t.Logf("%.0f allocations for %d rows", allocs, len(rows))
	if allocs > 1 {
		t.Fatalf("StatsReport allocates %.0f objects for %d rows, bound 1", allocs, len(rows))
	}
}
