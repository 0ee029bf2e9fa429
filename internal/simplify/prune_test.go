package simplify

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

// pruneInput decodes fuzz bytes into the trajectories FuzzSplitPrune
// divides. Once the bytes run out a splitmix64 stream seeded from them
// takes over, so a short input still yields 128–1 024 samples: at least
// three full blocks, so the top ranges take the pruned path.
type pruneInput struct {
	data  []byte
	state uint64
}

func newPruneInput(data []byte) *pruneInput {
	in := &pruneInput{data: data, state: 0x9e3779b97f4a7c15}
	for _, b := range data {
		in.state = in.state*31 + uint64(b)
	}
	return in
}

func (in *pruneInput) next() byte {
	if len(in.data) > 0 {
		b := in.data[0]
		in.data = in.data[1:]
		return b
	}
	in.state += 0x9e3779b97f4a7c15
	z := in.state
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return byte(z ^ z>>31)
}

// pruneSamples builds the trajectory: a lattice walk (with coincident and
// collinear runs), or a mirrored zigzag whose deviations from the chord tie
// exactly at mirrored indices — on a lattice of unit 1, 1e-12, 1e12, 1e200
// (whose squares overflow) or 1e-3 around an offset of ±1e9 (where the
// chord arithmetic cancels), with an optional NaN coordinate. It returns
// the samples and the lattice unit.
func pruneSamples(in *pruneInput) ([]model.Sample, float64) {
	shape := in.next()
	scale := int(shape>>2) % 6
	unit := []float64{1, 1e-12, 1e12, 1e200, 1e-3, 1e-3}[scale]
	off := 0.0
	if scale >= 4 {
		off = []float64{1e9, -3.7e8}[scale-4]
	}
	n := 128 + (int(in.next())<<8|int(in.next()))%897
	xs, ys, ts := make([]float64, n), make([]float64, n), make([]model.Tick, n)
	if shape&3 == 3 { // mirrored zigzag: amplitudes and tick gaps symmetric about the middle
		for k := 0; k <= (n-1)/2; k++ {
			a := float64(in.next() % 8)
			if k%2 == 1 {
				a = -a
			}
			ys[k], ys[n-1-k] = a, a
			xs[k], xs[n-1-k] = float64(k), float64(n-1-k)
		}
		for k := 1; k <= n/2; k++ {
			gap := model.Tick(1 + in.next()%3)
			ts[k], ts[n-k] = gap, gap // gaps, summed below
		}
		for k := 1; k < n; k++ {
			ts[k] += ts[k-1]
		}
	} else { // lattice walk
		x, y, dx, dy := 0.0, 0.0, 1.0, 0.0
		for k := 1; k < n; k++ {
			op := in.next()
			switch op % 4 {
			case 0: // coincident with the previous sample
			case 1: // one more step along the previous direction
				x, y = x+dx, y+dy
			default:
				dx, dy = float64(int8(in.next())%9), float64(int8(in.next())%9)
				x, y = x+dx, y+dy
			}
			xs[k], ys[k] = x, y
			ts[k] = ts[k-1] + 1 + model.Tick(op>>2%4)
		}
	}
	samples := make([]model.Sample, n)
	for k := range samples {
		samples[k] = model.Sample{T: ts[k], P: geom.Pt(off+xs[k]*unit, off+ys[k]*unit)}
	}
	if b := in.next(); b&0x80 != 0 {
		at := (int(b&0x7f)<<8 | int(in.next())) % n
		if b&0x40 != 0 {
			samples[at].P.X = math.NaN()
		} else {
			samples[at].P.Y = math.NaN()
		}
	}
	return samples, unit
}

// FuzzSplitPrune holds the block-bounded DP and DP* kernels to the linear
// scan: for every range the division visits, at δ = 0 and at a decoded δ,
// the pruned kernel's (maxDist, split) is bit for bit the linear loop's,
// and Simplify equals a division that never prunes.
func FuzzSplitPrune(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 3, 1, 0, 200})
	f.Add([]byte{3, 16, 0, 255, 10, 0x80, 7})
	f.Add([]byte{7, 3, 128, 0, 40})
	f.Add([]byte{17, 12, 2, 9, 0, 0xc0, 0, 3})
	f.Add([]byte{48, 20, 1, 0, 1, 2, 5, 5, 9, 9})
	f.Add([]byte{51, 52, 3, 77, 100})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := newPruneInput(data)
		m := []Method{DP, DPStar}[in.next()&1]
		samples, unit := pruneSamples(in)
		delta := float64(in.next()) / 8 * unit
		// Built by hand: NewTrajectory refuses the NaN samples the kernels
		// must still divide exactly as the linear scan does.
		tr := &model.Trajectory{Label: "f", Samples: samples}
		pruned := getScratch(samples, true)
		defer pruned.release()
		if len(pruned.boxes) < 3 {
			t.Fatalf("%d samples, %d blocks bounded", len(samples), len(pruned.boxes))
		}
		linear := &scratch{samples: samples}
		for _, d := range []float64{0, delta} {
			stack := []frame{{0, len(samples) - 1}}
			for len(stack) > 0 {
				fr := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if fr.j <= fr.i+1 {
					continue
				}
				gd, gs := pruned.splitPoint(fr.i, fr.j, d, m)
				wd, ws := linear.splitPoint(fr.i, fr.j, d, m)
				if math.Float64bits(gd) != math.Float64bits(wd) || gs != ws {
					t.Fatalf("%v range [%d,%d] δ=%g: pruned (%v, %d), linear (%v, %d)", m, fr.i, fr.j, d, gd, gs, wd, ws)
				}
				if gs >= 0 {
					stack = append(stack, frame{gs, fr.j}, frame{fr.i, gs})
				}
			}
			sameSimplification(t, Simplify(tr, d, m), linear.simplify(tr, d, m))
		}
	})
}
