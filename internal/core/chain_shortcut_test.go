package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/model"
)

// TestChainStepShortcutMatchesFullStep holds chainStep's repeat shortcut to
// the full step it skips. Seeded random cluster-list streams run through
// chainStep twice — as shipped, and with the shortcut off
// (candidateSet.fullSteps) — and after every step the two generations must
// be identical (objects, support, start, end, order), as must everything
// reported and emitted, with trackSupport off (a Monitor's chain) and on
// (the CuTS filter's, over λ-windows whose fresh start precedes their end).
// The streams mix repeats of the list before — the same slice, or a
// value-equal copy — with fresh disjoint lists, lists whose clusters share
// a border object, lists with a cluster smaller than m, and nil and empty
// steps. The shortcut must also fire exactly when the list repeats the last
// step's and is stable (pairwise disjoint, every cluster at least m).
func TestChainStepShortcutMatchesFullStep(t *testing.T) {
	shortcuts, fullRepeats := 0, 0
	for seed := int64(1); seed <= 40; seed++ {
		for _, track := range []bool{false, true} {
			r := rand.New(rand.NewSource(seed))
			m := 1 + r.Intn(3)
			k := int64(2 + r.Intn(3))
			s := clusterStream{r: r, m: m}
			var shipped, full candidateSet
			full.fullSteps = true
			var liveS, liveF []*candidate
			var outS, outF []Convoy
			var emS, emF []candidate
			var prev [][]model.ObjectID
			for step := 0; step < 300; step++ {
				clusters := s.next()
				w0 := model.Tick(10 * step)
				w1 := w0
				if track {
					w1 = w0 + 9
				}
				before := liveS
				liveS = chainStep(&shipped, liveS, clusters, m, k, w0, w1, track, &outS, func(v *candidate) { emS = append(emS, *v) })
				liveF = chainStep(&full, liveF, clusters, m, k, w0, w1, track, &outF, func(v *candidate) { emF = append(emF, *v) })
				where := fmt.Sprintf("seed %d, support %v, m %d, step %d, clusters %v", seed, track, m, step, clusters)
				if msg := generationDiff(liveS, liveF); msg != "" {
					t.Fatalf("%s: %s", where, msg)
				}
				took := len(before) > 0 && len(liveS) > 0 && &liveS[0] == &before[0]
				repeat := len(clusters) > 0 && slices.EqualFunc(clusters, prev, slices.Equal[[]model.ObjectID])
				if want := repeat && stableRef(clusters, m); took != want {
					t.Fatalf("%s: shortcut taken %v, want %v", where, took, want)
				}
				if took {
					shortcuts++
				} else if repeat {
					fullRepeats++
				}
				prev = clusters
			}
			flushCandidates(liveS, k, &outS, func(v *candidate) { emS = append(emS, *v) })
			flushCandidates(liveF, k, &outF, func(v *candidate) { emF = append(emF, *v) })
			if !slices.EqualFunc(outS, outF, sameConvoy) {
				t.Fatalf("seed %d, support %v: reported %v, the full steps %v", seed, track, outS, outF)
			}
			if msg := generationDiff(ptrs(emS), ptrs(emF)); msg != "" {
				t.Fatalf("seed %d, support %v: emitted: %s", seed, track, msg)
			}
		}
	}
	if shortcuts == 0 || fullRepeats == 0 {
		t.Fatalf("%d shortcut steps, %d repeats chained in full: the streams do not exercise both", shortcuts, fullRepeats)
	}
}

// TestMonitorShortcutAcrossTickGaps is the same comparison through two
// Monitors — one as shipped, one with the shortcut off — over streams whose
// ticks sometimes skip: a gap kills every candidate, so the repeat after it
// must chain in full. Emissions at every tick, the live generation and the
// final flush must agree.
func TestMonitorShortcutAcrossTickGaps(t *testing.T) {
	gaps := 0
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		p := Params{M: 1 + r.Intn(3), K: int64(2 + r.Intn(3)), Eps: 1}
		s := clusterStream{r: r, m: p.M}
		shipped, full := &Monitor{p: p}, &Monitor{p: p, next: candidateSet{fullSteps: true}}
		tick := model.Tick(0)
		for step := 0; step < 300; step++ {
			if r.Intn(10) == 0 {
				tick += model.Tick(1 + r.Intn(3))
				gaps++
			}
			clusters := s.next()
			a, errA := shipped.AdvanceClusters(tick, clusters)
			b, errB := full.AdvanceClusters(tick, clusters)
			if errA != nil || errB != nil {
				t.Fatalf("seed %d, tick %d: %v, %v", seed, tick, errA, errB)
			}
			if !slices.EqualFunc(a, b, sameConvoy) {
				t.Fatalf("seed %d, tick %d: emitted %v, the full steps %v", seed, tick, a, b)
			}
			if msg := generationDiff(shipped.live, full.live); msg != "" {
				t.Fatalf("seed %d, tick %d: %s", seed, tick, msg)
			}
			tick++
		}
		if a, b := shipped.Close(), full.Close(); !slices.EqualFunc(a, b, sameConvoy) {
			t.Fatalf("seed %d: flushed %v, the full steps %v", seed, a, b)
		}
	}
	if gaps == 0 {
		t.Fatal("the streams skipped no tick")
	}
}

// clusterStream yields random cluster lists over objects 0..15 (and a
// border object 99): most steps repeat the list before, as the same slice
// or as a value-equal copy; the rest go back to one of the last few lists
// (A, B, A and A, nil, A) or draw a fresh disjoint list, one whose clusters
// share a border object, one with a cluster smaller than m, an empty list
// or nil.
type clusterStream struct {
	r    *rand.Rand
	m    int
	prev [][]model.ObjectID
	hist [][][]model.ObjectID // the last lists drawn, oldest first
}

func (s *clusterStream) next() [][]model.ObjectID {
	switch x := s.r.Intn(20); {
	case x < 7:
		return s.prev
	case x < 10:
		return cloneClusters(s.prev)
	case x < 12:
		if len(s.hist) > 0 {
			s.prev = cloneClusters(s.hist[s.r.Intn(len(s.hist))])
		}
	case x < 15:
		s.prev = s.disjoint()
	case x < 17:
		s.prev = s.disjoint()
		if len(s.prev) >= 2 {
			const border = 99
			i := s.r.Intn(len(s.prev))
			j := (i + 1 + s.r.Intn(len(s.prev)-1)) % len(s.prev)
			s.prev[i] = append(s.prev[i], border)
			s.prev[j] = append(s.prev[j], border)
		}
	case x < 18:
		s.prev = s.disjoint()
		if i := s.r.Intn(len(s.prev) + 1); i < len(s.prev) && s.m > 1 {
			s.prev[i] = s.prev[i][:s.m-1]
		}
	case x < 19:
		s.prev = nil
	default:
		s.prev = [][]model.ObjectID{}
	}
	if s.hist = append(s.hist, s.prev); len(s.hist) > 4 {
		s.hist = s.hist[1:]
	}
	return s.prev
}

func cloneClusters(clusters [][]model.ObjectID) [][]model.ObjectID {
	if clusters == nil {
		return nil
	}
	out := make([][]model.ObjectID, len(clusters))
	for i, c := range clusters {
		out[i] = slices.Clone(c)
	}
	return out
}

// disjoint draws pairwise disjoint clusters of m to m+3 objects out of a
// shuffle of 0..15, each kept with probability 4/5, in shuffle order.
func (s *clusterStream) disjoint() [][]model.ObjectID {
	perm := s.r.Perm(16)
	var out [][]model.ObjectID
	for len(perm) >= s.m {
		n := min(s.m+s.r.Intn(4), len(perm))
		c := slices.Clone(perm[:n])
		perm = perm[n:]
		if s.r.Intn(5) > 0 {
			slices.Sort(c)
			out = append(out, c)
		}
	}
	return out
}

// stableRef is the stability rule, spelled out with a map: every cluster
// at least m objects, no object in two clusters.
func stableRef(clusters [][]model.ObjectID, m int) bool {
	seen := map[model.ObjectID]bool{}
	for _, c := range clusters {
		if len(c) < m {
			return false
		}
		for _, id := range c {
			if seen[id] {
				return false
			}
			seen[id] = true
		}
	}
	return true
}

// generationDiff describes the first difference between two candidate
// generations, or returns "" when they agree in order and in every field.
func generationDiff(a, b []*candidate) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d candidates, the full steps %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if !slices.Equal(x.objs, y.objs) || !slices.Equal(x.support, y.support) || x.start != y.start || x.end != y.end {
			return fmt.Sprintf("candidate %d is %+v, the full steps' %+v", i, *x, *y)
		}
	}
	return ""
}

func sameConvoy(a, b Convoy) bool {
	return slices.Equal(a.Objects, b.Objects) && a.Start == b.Start && a.End == b.End
}

func ptrs(cs []candidate) []*candidate {
	out := make([]*candidate, len(cs))
	for i := range cs {
		out[i] = &cs[i]
	}
	return out
}
