// Package apd reproduces the brake assistant application of the AUTOSAR
// Adaptive Platform Demonstrator (APD), the case study of the paper: a
// five-stage pipeline (Video Provider → Video Adapter → Preprocessing →
// Computer Vision → EBA) distributed over two platforms.
//
// Two implementations are provided over identical computational logic:
//
//   - Baseline — the stock APD design: one-slot input buffers fed by AP
//     event handlers, periodic 50 ms callbacks per component. This design
//     drops and misaligns data depending on callback phases, execution
//     jitter and clock drift (Figure 5 of the paper).
//   - Deterministic — the DEAR design: each component is a reactor bound
//     to its service interfaces through transactors; tagged messages and
//     safe-to-process scheduling make the pipeline deterministic
//     (Section IV-B).
//
// Video frames are synthetic but structurally real: pixels encode a
// drifting travel lane and vehicles whose sizes encode distance, so the
// preprocessing and vision stages perform genuine image analysis whose
// results can be checked downstream.
package apd

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/logical"
)

// Frame dimensions (kept modest so 100 000-frame experiments stay cheap).
const (
	FrameW = 48
	FrameH = 32
)

// Frame is one synthetic camera frame.
type Frame struct {
	Seq     uint32
	Capture logical.Time // physical capture time at the camera
	// Pix is FrameW*FrameH grayscale, row-major. A frame decoded by
	// UnmarshalFrame aliases the received payload, which a stage may
	// forward downstream, so Pix is read-only.
	Pix []byte
}

// LaneInfo is the preprocessing result: the bounding box demarcating the
// current travel lane.
type LaneInfo struct {
	Seq                      uint32
	Left, Right, Top, Bottom int
}

// Vehicle is one detected vehicle ahead.
type Vehicle struct {
	// Distance is the estimated distance in meters.
	Distance float64
	// Col is the horizontal center position in pixels.
	Col int
}

// VehicleList is the computer-vision result.
type VehicleList struct {
	Seq      uint32
	Capture  logical.Time
	Vehicles []Vehicle
}

// BrakeCmd is the EBA output.
type BrakeCmd struct {
	Seq   uint32
	Brake bool
	// Force in [0,1]; 1 = full emergency braking.
	Force float64
}

// --- wire encoding (big endian, explicit layouts) ---

// frameWireSize is an encoded frame's length: seq, capture time, pixels.
const frameWireSize = 4 + 8 + FrameW*FrameH

// MarshalFrame encodes a frame for transmission.
func MarshalFrame(f *Frame) []byte {
	buf := make([]byte, 4+8+len(f.Pix))
	binary.BigEndian.PutUint32(buf[0:4], f.Seq)
	binary.BigEndian.PutUint64(buf[4:12], uint64(f.Capture))
	copy(buf[12:], f.Pix)
	return buf
}

// UnmarshalFrame decodes a frame without copying its pixels: Pix
// aliases buf[12:]. A delivered payload is the receiver's for good, and
// no stage writes Pix.
func UnmarshalFrame(buf []byte) (*Frame, error) {
	if len(buf) != frameWireSize {
		return nil, fmt.Errorf("apd: frame payload %d bytes, want %d", len(buf), frameWireSize)
	}
	return &Frame{
		Seq:     binary.BigEndian.Uint32(buf[0:4]),
		Capture: logical.Time(binary.BigEndian.Uint64(buf[4:12])),
		Pix:     buf[12:frameWireSize:frameWireSize],
	}, nil
}

// MarshalLane encodes lane info.
func MarshalLane(l *LaneInfo) []byte {
	buf := make([]byte, 4+4*4)
	binary.BigEndian.PutUint32(buf[0:4], l.Seq)
	binary.BigEndian.PutUint32(buf[4:8], uint32(l.Left))
	binary.BigEndian.PutUint32(buf[8:12], uint32(l.Right))
	binary.BigEndian.PutUint32(buf[12:16], uint32(l.Top))
	binary.BigEndian.PutUint32(buf[16:20], uint32(l.Bottom))
	return buf
}

// UnmarshalLane decodes lane info.
func UnmarshalLane(buf []byte) (*LaneInfo, error) {
	if len(buf) != 20 {
		return nil, fmt.Errorf("apd: lane payload %d bytes, want 20", len(buf))
	}
	return &LaneInfo{
		Seq:    binary.BigEndian.Uint32(buf[0:4]),
		Left:   int(binary.BigEndian.Uint32(buf[4:8])),
		Right:  int(binary.BigEndian.Uint32(buf[8:12])),
		Top:    int(binary.BigEndian.Uint32(buf[12:16])),
		Bottom: int(binary.BigEndian.Uint32(buf[16:20])),
	}, nil
}

// MarshalVehicles encodes a vehicle list.
func MarshalVehicles(v *VehicleList) []byte {
	buf := make([]byte, 4+8+2+len(v.Vehicles)*12)
	binary.BigEndian.PutUint32(buf[0:4], v.Seq)
	binary.BigEndian.PutUint64(buf[4:12], uint64(v.Capture))
	binary.BigEndian.PutUint16(buf[12:14], uint16(len(v.Vehicles)))
	off := 14
	for _, veh := range v.Vehicles {
		binary.BigEndian.PutUint64(buf[off:off+8], math.Float64bits(veh.Distance))
		binary.BigEndian.PutUint32(buf[off+8:off+12], uint32(veh.Col))
		off += 12
	}
	return buf
}

// UnmarshalVehicles decodes a vehicle list.
func UnmarshalVehicles(buf []byte) (*VehicleList, error) {
	if len(buf) < 14 {
		return nil, fmt.Errorf("apd: vehicles payload %d bytes, want >= 14", len(buf))
	}
	n := int(binary.BigEndian.Uint16(buf[12:14]))
	if len(buf) != 14+12*n {
		return nil, fmt.Errorf("apd: vehicles payload %d bytes for %d vehicles", len(buf), n)
	}
	v := &VehicleList{
		Seq:     binary.BigEndian.Uint32(buf[0:4]),
		Capture: logical.Time(binary.BigEndian.Uint64(buf[4:12])),
	}
	off := 14
	for i := 0; i < n; i++ {
		v.Vehicles = append(v.Vehicles, Vehicle{
			Distance: math.Float64frombits(binary.BigEndian.Uint64(buf[off : off+8])),
			Col:      int(binary.BigEndian.Uint32(buf[off+8 : off+12])),
		})
		off += 12
	}
	return v, nil
}
