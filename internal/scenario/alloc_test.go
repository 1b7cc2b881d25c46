package scenario

import (
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
