package apd

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/logical"
)

func TestSceneGeneratesSequentialFrames(t *testing.T) {
	s := &Scene{}
	f0 := s.Generate(100)
	f1 := s.Generate(200)
	if f0.Seq != 0 || f1.Seq != 1 {
		t.Errorf("seqs = %d, %d", f0.Seq, f1.Seq)
	}
	if f0.Capture != 100 || f1.Capture != 200 {
		t.Errorf("captures = %v, %v", f0.Capture, f1.Capture)
	}
	if len(f0.Pix) != FrameW*FrameH {
		t.Errorf("pix len = %d", len(f0.Pix))
	}
}

func TestPreprocessFindsLane(t *testing.T) {
	s := &Scene{}
	for i := 0; i < 50; i++ {
		f := s.Generate(0)
		lane := Preprocess(f)
		if lane.Seq != f.Seq {
			t.Fatalf("lane seq %d != frame seq %d", lane.Seq, f.Seq)
		}
		if lane.Left >= lane.Right {
			t.Fatalf("frame %d: degenerate lane [%d, %d]", f.Seq, lane.Left, lane.Right)
		}
		// The lane must bracket the lane center at the bottom row.
		center := laneCenter(laneSway(f.Seq), f.Seq, FrameH-1)
		if center < lane.Left || center > lane.Right {
			t.Errorf("frame %d: center %d outside [%d, %d]", f.Seq, center, lane.Left, lane.Right)
		}
	}
}

func TestDetectVehiclesApproximatesTruth(t *testing.T) {
	s := &Scene{}
	checked := 0
	for i := 0; i < 400; i++ {
		f := s.Generate(0)
		gt := s.vehicleAt(f.Seq)
		truth := gt.distance
		lane := Preprocess(f)
		got := DetectVehicles(f, lane)
		if !gt.present {
			continue
		}
		if len(got.Vehicles) == 0 {
			// Very distant vehicles (tiny blobs) may be missed; only
			// demand detection within EBA-relevant range.
			if truth < 40 {
				t.Errorf("frame %d: vehicle at %.1fm not detected", f.Seq, truth)
			}
			continue
		}
		est := got.Vehicles[0].Distance
		if truth < 40 && math.Abs(est-truth)/truth > 0.35 {
			t.Errorf("frame %d: distance %.1f vs truth %.1f", f.Seq, est, truth)
		}
		checked++
	}
	if checked < 100 {
		t.Errorf("only %d frames checked against truth", checked)
	}
}

func TestEBADecidesToBrakeWhenClose(t *testing.T) {
	var s EBAState
	far := &VehicleList{Seq: 1, Vehicles: []Vehicle{{Distance: 50}}}
	if cmd := s.Decide(far); cmd.Brake {
		t.Error("braking at 50m")
	}
	near := &VehicleList{Seq: 2, Vehicles: []Vehicle{{Distance: 10}}}
	cmd := s.Decide(near)
	if !cmd.Brake {
		t.Error("not braking at 10m")
	}
	if cmd.Force <= 0 || cmd.Force > 1 {
		t.Errorf("force = %v", cmd.Force)
	}
}

func TestEBAEmptyListClearsState(t *testing.T) {
	var s EBAState
	s.Decide(&VehicleList{Seq: 1, Vehicles: []Vehicle{{Distance: 20}}})
	cmd := s.Decide(&VehicleList{Seq: 2})
	if cmd.Brake {
		t.Error("braking with no vehicles")
	}
	if s.havePrev {
		t.Error("state not cleared")
	}
}

func TestEBAPipelineTriggersBrakesOverScript(t *testing.T) {
	// Over one full vehicle cycle (900 frames) the scripted vehicle
	// approaches below the brake threshold: the full pipeline must brake
	// at least once and release afterwards.
	s := &Scene{}
	var eba EBAState
	brakes, releases := 0, 0
	braking := false
	for i := 0; i < 900; i++ {
		f := s.Generate(0)
		lane := Preprocess(f)
		v := DetectVehicles(f, lane)
		cmd := eba.Decide(v)
		if cmd.Brake && !braking {
			brakes++
		}
		if !cmd.Brake && braking {
			releases++
		}
		braking = cmd.Brake
	}
	if brakes == 0 {
		t.Error("pipeline never braked over a full approach cycle")
	}
	if releases == 0 {
		t.Error("pipeline never released the brake")
	}
}

func TestFrameMarshalRoundTrip(t *testing.T) {
	s := &Scene{}
	f := s.Generate(12345)
	got, err := UnmarshalFrame(MarshalFrame(f))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != f.Seq || got.Capture != f.Capture {
		t.Errorf("header mismatch: %+v", got)
	}
	for i := range f.Pix {
		if got.Pix[i] != f.Pix[i] {
			t.Fatalf("pixel %d differs", i)
		}
	}
}

// TestGenerateWireMatchesMarshalFrame pins the camera's in-place
// rendering: one reused buffer holds, frame after frame, exactly the
// bytes of MarshalFrame(Generate(capture)).
func TestGenerateWireMatchesMarshalFrame(t *testing.T) {
	wireScene, frameScene := &Scene{}, &Scene{}
	var wire []byte
	for i := 0; i < 200; i++ {
		capture := logical.Time(i * 50_000_017)
		wire = wireScene.generateWire(wire, capture)
		want := MarshalFrame(frameScene.Generate(capture))
		if !bytes.Equal(wire, want) {
			t.Fatalf("frame %d: in-place wire bytes differ from MarshalFrame(Generate)", i)
		}
	}
}

// TestStagesDoNotMutateFrame pins the read-only contract of an aliased
// Frame.Pix: Preprocessing forwards the very payload it decoded, so
// neither stage may write the pixels it reads.
func TestStagesDoNotMutateFrame(t *testing.T) {
	s := &Scene{}
	for i := 0; i < 200; i++ {
		payload := MarshalFrame(s.Generate(0))
		orig := bytes.Clone(payload)
		f, err := UnmarshalFrame(payload)
		if err != nil {
			t.Fatal(err)
		}
		if &f.Pix[0] != &payload[12] {
			t.Fatal("UnmarshalFrame copied the pixels instead of aliasing the payload")
		}
		DetectVehicles(f, Preprocess(f))
		if !bytes.Equal(payload, orig) {
			t.Fatalf("frame %d: a stage wrote the aliased payload", i)
		}
	}
}

func TestFrameUnmarshalRejectsBadSize(t *testing.T) {
	if _, err := UnmarshalFrame(make([]byte, 10)); err == nil {
		t.Error("want error")
	}
}

func TestLaneMarshalRoundTrip(t *testing.T) {
	l := &LaneInfo{Seq: 7, Left: 3, Right: 40, Top: 16, Bottom: 31}
	got, err := UnmarshalLane(MarshalLane(l))
	if err != nil {
		t.Fatal(err)
	}
	if *got != *l {
		t.Errorf("got %+v, want %+v", got, l)
	}
}

func TestVehiclesMarshalRoundTrip(t *testing.T) {
	v := &VehicleList{Seq: 9, Capture: 555, Vehicles: []Vehicle{
		{Distance: 13.5, Col: 20},
		{Distance: 47.25, Col: 31},
	}}
	got, err := UnmarshalVehicles(MarshalVehicles(v))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != v.Seq || got.Capture != v.Capture || len(got.Vehicles) != 2 {
		t.Fatalf("got %+v", got)
	}
	for i := range v.Vehicles {
		if got.Vehicles[i] != v.Vehicles[i] {
			t.Errorf("vehicle %d: %+v vs %+v", i, got.Vehicles[i], v.Vehicles[i])
		}
	}
}

func TestVehiclesEmptyRoundTrip(t *testing.T) {
	v := &VehicleList{Seq: 1, Capture: 2}
	got, err := UnmarshalVehicles(MarshalVehicles(v))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Vehicles) != 0 {
		t.Errorf("got %+v", got)
	}
}

// Property: lane marshal round-trips arbitrary boxes.
func TestLaneMarshalProperty(t *testing.T) {
	f := func(seq uint32, l, r, top, bot uint16) bool {
		in := &LaneInfo{Seq: seq, Left: int(l), Right: int(r), Top: int(top), Bottom: int(bot)}
		out, err := UnmarshalLane(MarshalLane(in))
		return err == nil && *out == *in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: vehicle list marshal round-trips arbitrary contents.
func TestVehiclesMarshalProperty(t *testing.T) {
	f := func(seq uint32, cap int64, dists []float64) bool {
		if len(dists) > 100 {
			dists = dists[:100]
		}
		in := &VehicleList{Seq: seq, Capture: logical.Time(cap)}
		for i, d := range dists {
			if math.IsNaN(d) {
				d = 0
			}
			in.Vehicles = append(in.Vehicles, Vehicle{Distance: d, Col: i})
		}
		out, err := UnmarshalVehicles(MarshalVehicles(in))
		if err != nil || out.Seq != in.Seq || len(out.Vehicles) != len(in.Vehicles) {
			return false
		}
		for i := range in.Vehicles {
			if out.Vehicles[i] != in.Vehicles[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSeqTracker(t *testing.T) {
	var tr seqTracker
	if d := tr.observe(5); d != 0 {
		t.Errorf("first observe = %d", d)
	}
	if d := tr.observe(6); d != 0 {
		t.Errorf("consecutive = %d", d)
	}
	if d := tr.observe(9); d != 2 {
		t.Errorf("gap = %d, want 2", d)
	}
	if d := tr.observe(9); d != 0 {
		t.Errorf("repeat = %d", d)
	}
}

func TestErrorCountersPrevalence(t *testing.T) {
	e := ErrorCounters{FramesSent: 1000, DroppedCV: 10, MismatchCV: 5, DroppedEBA: 5}
	if e.TotalErrors() != 20 {
		t.Errorf("total = %d", e.TotalErrors())
	}
	if e.Prevalence() != 2.0 {
		t.Errorf("prevalence = %v", e.Prevalence())
	}
	var zero ErrorCounters
	if zero.Prevalence() != 0 {
		t.Error("zero counters should have zero prevalence")
	}
}
