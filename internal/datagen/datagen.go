// Package datagen synthesizes trajectory databases. The paper evaluates on
// four proprietary datasets (Truck, Cattle, Car, Taxi) that are not
// redistributable; this package generates seeded synthetic stand-ins that
// match the statistics reported in Table 3 — object count, time-domain
// length, mean trajectory length, sampling regularity, lifespan spread —
// and the structural property each dataset contributes to the evaluation
// (each profile's doc comment in profiles.go names that property and the
// paper's own result on the real data).
//
// All generation is deterministic in the profile's seed.
package datagen

import (
	"math"
	"math/rand"

	"repro/internal/geom"
	"repro/internal/model"
)

// GroupSpec plants one co-traveling group.
type GroupSpec struct {
	// Size is the number of member objects.
	Size int
	// Start and End delimit the ticks during which members travel together.
	Start, End model.Tick
	// Spacing is the gap between consecutive members of the group's chain
	// formation; keep it ≤ the query's e so the chain is density-connected
	// (the elongated-group shape motivating density-based convoys).
	Spacing float64
}

// Scenario describes a synthetic world.
type Scenario struct {
	Seed int64
	// T is the time-domain length: ticks run 0 … T−1.
	T int64
	// World is the side length of the square world.
	World float64
	// Speed is the per-tick movement distance of the waypoint walkers.
	Speed float64
	// Groups are the planted co-traveling groups.
	Groups []GroupSpec
	// Background is the number of independently wandering objects.
	Background int
	// KeepProb is the probability a tick inside an object's lifespan is
	// recorded (1 = regular sampling; lower values simulate the Taxi
	// dataset's irregular reporting). First and last ticks are always kept.
	KeepProb float64
	// SpanFrac gives the [min, max] fraction of T an object lives;
	// {1, 1} makes every object span the whole domain (Cattle).
	SpanFrac [2]float64
	// Jitter is the per-tick positional noise added to group members; keep
	// it well below the query's e.
	Jitter float64
	// Curvature is the per-tick heading diffusion (radians stddev) of all
	// walkers; 0 selects a gentle default. Higher values bend the paths
	// more, lowering the vertex reduction achievable at a given δ.
	Curvature float64
	// GroupMembersFullSpan makes group members live over the whole time
	// domain, wandering solo outside their group window (the Cattle herd
	// shape: the same animals regroup repeatedly along a long history).
	// When false, members exist only during their group window (Truck
	// deliveries: each co-trip is a distinct trajectory).
	GroupMembersFullSpan bool
	// MoveProb is the per-tick probability a walker takes a step; on the
	// other ticks it reports a bit-identical position (a parked commuter
	// pinging from the same spot). 0 or ≥ 1 means every tick moves — the
	// classic always-moving walker. Low values produce the low-churn
	// streams the incremental clustering fast path is built for.
	MoveProb float64
}

// walker moves with a smoothly drifting heading at constant speed,
// reflecting off the world borders. Heading diffusion (curvature) makes the
// paths bend continuously like road or grazing movement, so line
// simplification produces segments of bounded spatial extent — straight
// waypoint legs would collapse into world-spanning segments that no real
// GPS trace exhibits.
type walker struct {
	pos       geom.Point
	heading   float64
	speed     float64
	world     float64
	curvature float64
	// moveProb gates each step: in (0, 1) the walker only moves on that
	// fraction of ticks and otherwise holds its exact position.
	moveProb float64
	r        *rand.Rand
}

func newWalker(r *rand.Rand, world, speed, curvature float64) *walker {
	return &walker{
		pos:       geom.Pt(r.Float64()*world, r.Float64()*world),
		heading:   r.Float64() * 2 * math.Pi,
		speed:     speed,
		world:     world,
		curvature: curvature,
		r:         r,
	}
}

// newWalkerAt starts a walker from a given position.
func newWalkerAt(r *rand.Rand, pos geom.Point, world, speed, curvature float64) *walker {
	w := newWalker(r, world, speed, curvature)
	w.pos = pos
	return w
}

func (w *walker) step() geom.Point {
	if w.moveProb > 0 && w.moveProb < 1 && w.r.Float64() >= w.moveProb {
		return w.pos // parked this tick: bit-identical position
	}
	w.heading += w.r.NormFloat64() * w.curvature
	nx := w.pos.X + w.speed*math.Cos(w.heading)
	ny := w.pos.Y + w.speed*math.Sin(w.heading)
	if nx < 0 {
		nx = -nx
		w.heading = math.Pi - w.heading
	} else if nx > w.world {
		nx = 2*w.world - nx
		w.heading = math.Pi - w.heading
	}
	if ny < 0 {
		ny = -ny
		w.heading = -w.heading
	} else if ny > w.world {
		ny = 2*w.world - ny
		w.heading = -w.heading
	}
	w.pos = geom.Pt(nx, ny)
	return w.pos
}

// Generate builds the database for the scenario.
func (sc Scenario) Generate() *model.DB {
	r := rand.New(rand.NewSource(sc.Seed))
	keep := sc.KeepProb
	if keep <= 0 || keep > 1 {
		keep = 1
	}
	curv := sc.Curvature
	if curv <= 0 {
		curv = 0.1
	}
	jitter := sc.Jitter
	db := model.NewDB()

	span := func(defaultLo, defaultHi model.Tick) (model.Tick, model.Tick) {
		loF, hiF := sc.SpanFrac[0], sc.SpanFrac[1]
		if loF <= 0 && hiF <= 0 {
			return defaultLo, defaultHi
		}
		if hiF > 1 {
			hiF = 1
		}
		if loF > hiF {
			loF = hiF
		}
		frac := loF + r.Float64()*(hiF-loF)
		length := int64(frac * float64(sc.T))
		if length < 1 {
			length = 1
		}
		maxStart := sc.T - length
		var start int64
		if maxStart > 0 {
			start = r.Int63n(maxStart + 1)
		}
		return model.Tick(start), model.Tick(start + length - 1)
	}

	emit := func(label string, lo, hi model.Tick, posAt func(t model.Tick) geom.Point) {
		var samples []model.Sample
		for t := lo; t <= hi; t++ {
			if t != lo && t != hi && r.Float64() > keep {
				continue
			}
			samples = append(samples, model.Sample{T: t, P: posAt(t)})
		}
		tr, err := model.NewTrajectory(label, samples)
		if err != nil {
			// Unreachable: lo ≤ hi always yields ≥ 1 strictly increasing sample.
			panic(err)
		}
		db.Add(tr)
	}

	for gi, g := range sc.Groups {
		anchor := newWalker(r, sc.World, sc.Speed, curv)
		anchor.moveProb = sc.MoveProb
		// Precompute the anchor path over the group's window.
		w0, w1 := g.Start, g.End
		if w1 >= model.Tick(sc.T) {
			w1 = model.Tick(sc.T) - 1
		}
		if w0 < 0 {
			w0 = 0
		}
		path := make([]geom.Point, w1-w0+1)
		for i := range path {
			path[i] = anchor.step()
		}
		// Chain formation direction, fixed per group.
		theta := r.Float64() * 2 * math.Pi
		dir := geom.Pt(math.Cos(theta), math.Sin(theta))
		for m := 0; m < g.Size; m++ {
			off := dir.Scale(float64(m) * g.Spacing)
			memberJitter := make([]geom.Point, len(path))
			for i := range memberJitter {
				memberJitter[i] = geom.Pt(r.Float64()*2*jitter-jitter, r.Float64()*2*jitter-jitter)
			}
			groupPos := func(t model.Tick) geom.Point {
				i := int(t - w0)
				return path[i].Add(off).Add(memberJitter[i])
			}
			if !sc.GroupMembersFullSpan {
				emit(groupLabel(gi, m), w0, w1, groupPos)
				continue
			}
			// Full-span member: solo wandering before and after the group
			// window, continuous at both window boundaries.
			pre := make([]geom.Point, w0)
			if w0 > 0 {
				wk := newWalkerAt(r, groupPos(w0), sc.World, sc.Speed, curv)
				wk.moveProb = sc.MoveProb
				for i := int(w0) - 1; i >= 0; i-- {
					pre[i] = wk.step() // generated backwards from the window start
				}
			}
			post := make([]geom.Point, model.Tick(sc.T)-1-w1)
			if len(post) > 0 {
				wk := newWalkerAt(r, groupPos(w1), sc.World, sc.Speed, curv)
				wk.moveProb = sc.MoveProb
				for i := range post {
					post[i] = wk.step()
				}
			}
			emit(groupLabel(gi, m), 0, model.Tick(sc.T)-1, func(t model.Tick) geom.Point {
				switch {
				case t < w0:
					return pre[t]
				case t > w1:
					return post[t-w1-1]
				default:
					return groupPos(t)
				}
			})
		}
	}
	for b := 0; b < sc.Background; b++ {
		lo, hi := span(0, model.Tick(sc.T)-1)
		wkr := newWalker(r, sc.World, sc.Speed, curv)
		wkr.moveProb = sc.MoveProb
		path := make([]geom.Point, hi-lo+1)
		for i := range path {
			path[i] = wkr.step()
		}
		emit(bgLabel(b), lo, hi, func(t model.Tick) geom.Point {
			return path[int(t-lo)]
		})
	}
	return db
}

func groupLabel(g, m int) string {
	return "g" + itoa(g) + "-" + itoa(m)
}

func bgLabel(b int) string { return "bg" + itoa(b) }

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
