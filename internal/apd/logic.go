package apd

import (
	"encoding/binary"
	"math"

	"repro/internal/logical"
)

// The computational logic shared by both implementations, mirroring the
// paper's observation that "the original implementation separates
// computational logic from the communication mechanism".

// Road synthesis parameters.
const (
	roadGray    = 200 // background
	laneGray    = 40  // lane marking
	vehicleGray = 90  // vehicle body
	// vehicleScale maps apparent width (px) to distance (m):
	// distance = vehicleScale / width.
	vehicleScale = 240.0
	// BrakeDistance is the EBA emergency threshold in meters.
	BrakeDistance = 18.0
)

// Scene drives the synthetic road: lane curvature and vehicle positions
// evolve deterministically with the frame sequence number, so every stage
// can be validated against ground truth.
type Scene struct {
	seq uint32
}

// laneSway is the row-independent part of the lane center: the whole
// lane's sideways offset in frame seq. The lane sways slowly with seq.
func laneSway(seq uint32) float64 {
	return 6 * math.Sin(float64(seq)/180)
}

// laneCenter returns the lane center column for a given row of frame
// seq, whose sway is given (rows near the bottom are near the car).
func laneCenter(sway float64, seq uint32, row int) int {
	curve := 4 * math.Sin(float64(seq)/540+float64(row)/24)
	return FrameW/2 + int(sway+curve*float64(FrameH-row)/float64(FrameH))
}

// laneHalfWidthAt returns the lane half width for a row (perspective:
// wider near the bottom).
func laneHalfWidthAt(row int) int {
	return 4 + (row*10)/FrameH
}

// groundTruth describes the vehicle ahead for a frame.
type groundTruth struct {
	present  bool
	distance float64
	col      int
	row      int
	width    int
}

// vehicleAt computes the scripted vehicle state: a lead vehicle
// oscillates between far (60 m) and near (12 m), periodically crossing
// the braking threshold.
func (s *Scene) vehicleAt(seq uint32) groundTruth {
	phase := float64(seq%900) / 900
	distance := 36 - 24*math.Cos(2*math.Pi*phase) // 12..60 m
	width := int(math.Round(vehicleScale / distance))
	if width >= FrameW/2 {
		width = FrameW/2 - 1
	}
	row := FrameH - 6 - int(18*(distance-12)/48) // nearer = lower in frame
	return groundTruth{
		present:  true,
		distance: distance,
		col:      laneCenter(laneSway(seq), seq, row),
		row:      row,
		width:    width,
	}
}

// Generate produces the next synthetic frame.
func (s *Scene) Generate(capture logical.Time) *Frame {
	f := &Frame{Seq: s.seq, Capture: capture, Pix: make([]byte, FrameW*FrameH)}
	s.render(f.Pix)
	return f
}

// generateWire renders the next frame straight into its wire encoding,
// byte-identical to MarshalFrame(Generate(capture)), reusing buf's
// storage when it is large enough.
func (s *Scene) generateWire(buf []byte, capture logical.Time) []byte {
	if cap(buf) < frameWireSize {
		buf = make([]byte, frameWireSize)
	}
	buf = buf[:frameWireSize]
	binary.BigEndian.PutUint32(buf[0:4], s.seq)
	binary.BigEndian.PutUint64(buf[4:12], uint64(capture))
	s.render(buf[12:])
	return buf
}

// roadRow is one frame row of bare road, copied into every row before
// its lane markings are drawn.
var roadRow = func() (r [FrameW]byte) {
	for i := range r {
		r[i] = roadGray
	}
	return r
}()

// render draws the frame numbered s.seq into pix, overwriting every
// pixel, and advances the sequence.
func (s *Scene) render(pix []byte) {
	seq := s.seq
	s.seq++
	sway := laneSway(seq)
	for row := 0; row < FrameH; row++ {
		line := pix[row*FrameW : (row+1)*FrameW]
		copy(line, roadRow[:])
		center := laneCenter(sway, seq, row)
		half := laneHalfWidthAt(row)
		if c := center - half; c >= 0 && c < FrameW {
			line[c] = laneGray
		}
		if c := center + half; c >= 0 && c < FrameW {
			line[c] = laneGray
		}
	}
	gt := s.vehicleAt(seq)
	if gt.present {
		h := gt.width / 2
		if h < 1 {
			h = 1
		}
		for r := gt.row - h; r <= gt.row; r++ {
			if r < 0 || r >= FrameH {
				continue
			}
			for c := gt.col - gt.width/2; c <= gt.col+gt.width/2; c++ {
				if c < 0 || c >= FrameW {
					continue
				}
				pix[r*FrameW+c] = vehicleGray
			}
		}
	}
}

// Preprocess computes the travel-lane bounding box from the frame by
// locating the lane markings in the lower image half.
func Preprocess(f *Frame) *LaneInfo {
	left, right := FrameW, 0
	top := FrameH / 2
	for row := top; row < FrameH; row++ {
		for col := 0; col < FrameW; col++ {
			if f.Pix[row*FrameW+col] <= laneGray {
				if col < left {
					left = col
				}
				if col > right {
					right = col
				}
			}
		}
	}
	if left > right { // no markings found
		left, right = 0, FrameW-1
	}
	return &LaneInfo{Seq: f.Seq, Left: left, Right: right, Top: top, Bottom: FrameH - 1}
}

// DetectVehicles finds vehicle blobs inside the lane bounding box and
// estimates their distances from apparent width.
func DetectVehicles(f *Frame, lane *LaneInfo) *VehicleList {
	out := &VehicleList{Seq: f.Seq, Capture: f.Capture}
	// Scan rows bottom-up; the first row containing a vehicle run gives
	// the nearest vehicle.
	for row := lane.Bottom; row >= 0; row-- {
		runStart, runLen, bestLen, bestCol := -1, 0, 0, 0
		for col := lane.Left; col <= lane.Right; col++ {
			g := f.Pix[row*FrameW+col]
			isVehicle := g > laneGray && g <= vehicleGray+20
			if isVehicle {
				if runStart < 0 {
					runStart = col
				}
				runLen++
				if runLen > bestLen {
					bestLen = runLen
					bestCol = runStart + runLen/2
				}
			} else {
				runStart, runLen = -1, 0
			}
		}
		if bestLen >= 3 {
			out.Vehicles = append(out.Vehicles, Vehicle{
				Distance: vehicleScale / float64(bestLen),
				Col:      bestCol,
			})
			break
		}
	}
	return out
}

// EBAState carries the emergency-brake assistant's state between frames
// (previous distance for closing-speed estimation).
type EBAState struct {
	havePrev     bool
	prevDistance float64
	prevSeq      uint32
}

// Decide evaluates the braking decision for a vehicle list.
func (s *EBAState) Decide(v *VehicleList) *BrakeCmd {
	cmd := &BrakeCmd{Seq: v.Seq}
	if len(v.Vehicles) == 0 {
		s.havePrev = false
		return cmd
	}
	nearest := v.Vehicles[0].Distance
	for _, veh := range v.Vehicles[1:] {
		if veh.Distance < nearest {
			nearest = veh.Distance
		}
	}
	closing := 0.0
	if s.havePrev && v.Seq > s.prevSeq {
		closing = (s.prevDistance - nearest) / float64(v.Seq-s.prevSeq)
	}
	s.havePrev = true
	s.prevDistance = nearest
	s.prevSeq = v.Seq
	if nearest < BrakeDistance {
		cmd.Brake = true
		cmd.Force = math.Min(1, (BrakeDistance-nearest)/BrakeDistance+math.Max(0, closing)*2)
	}
	return cmd
}
