package apd

import (
	"bytes"
	"math"
	"testing"
)

// refLaneCenterAt is the lane center with the sway term computed in
// line, once per row, as render's per-pixel reference computes it.
func refLaneCenterAt(seq uint32, row int) int {
	sway := 6 * math.Sin(float64(seq)/180)
	curve := 4 * math.Sin(float64(seq)/540+float64(row)/24)
	return FrameW/2 + int(sway+curve*float64(FrameH-row)/float64(FrameH))
}

// refRender is the per-pixel form of render, one branch per pixel and
// the sway recomputed per row: the reference render must match.
func refRender(seq uint32, pix []byte) {
	for row := 0; row < FrameH; row++ {
		center := refLaneCenterAt(seq, row)
		half := laneHalfWidthAt(row)
		for col := 0; col < FrameW; col++ {
			g := byte(roadGray)
			if col == center-half || col == center+half {
				g = laneGray
			}
			pix[row*FrameW+col] = g
		}
	}
	gt := (&Scene{}).vehicleAt(seq)
	gt.col = refLaneCenterAt(seq, gt.row)
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

// render draws the same pixels as the per-pixel reference over two full
// vehicle cycles (900 frames each), so every lane sway and vehicle
// distance the scene produces is covered.
func TestRenderMatchesPerPixelReference(t *testing.T) {
	s := &Scene{}
	got := make([]byte, FrameW*FrameH)
	want := make([]byte, FrameW*FrameH)
	for seq := uint32(0); seq < 1800; seq++ {
		for i := range got {
			got[i] = 0xAA
		}
		s.render(got)
		refRender(seq, want)
		if !bytes.Equal(got, want) {
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("frame %d: pixel (%d,%d) is %d, reference %d",
						seq, i%FrameW, i/FrameW, got[i], want[i])
				}
			}
		}
	}
}
