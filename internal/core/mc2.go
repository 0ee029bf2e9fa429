package core

import (
	"fmt"

	"repro/internal/model"
)

// MC2 — the moving-cluster baseline of Kalnis et al. used by the appendix
// accuracy study (Figure 19). A moving cluster is a sequence of snapshot
// clusters at consecutive time points whose pairwise Jaccard overlap
// |c_t ∩ c_{t+1}| / |c_t ∪ c_{t+1}| is at least θ. There is no lifetime
// constraint and membership may drift along the chain, which is exactly why
// moving clusters cannot answer convoy queries (Section 2.1): depending on
// θ they report both false positives and false negatives.
//
// To compare against convoy answers, each maximal chain is cast to a
// convoy-shaped result carrying the chain's *common* objects (the
// intersection of all snapshot clusters in the chain) and its time
// interval.

// mcChain tracks one moving cluster under construction.
type mcChain struct {
	common []model.ObjectID // intersection of the chain's clusters
	tail   []model.ObjectID // last snapshot cluster (for the θ test)
	start  model.Tick
	end    model.Tick
}

// jaccard returns |a∩b| / |a∪b| for ascending slices; 0 when both empty.
func jaccard(a, b []model.ObjectID) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			inter++
			i++
			j++
		}
	}
	union := len(a) + len(b) - inter
	return float64(inter) / float64(union)
}

// MC2 discovers moving clusters with overlap threshold theta over the
// database, using the same snapshot clustering (eps = p.Eps, minPts = p.M)
// as CMC — one ClusterSource over the sweep cursor — and returns each
// maximal chain as a convoy-shaped answer (common objects, chain
// interval). p.K is deliberately ignored — moving clusters have no
// lifetime constraint.
func MC2(db *model.DB, p Params, theta float64) ([]Convoy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if theta < 0 || theta > 1 {
		return nil, fmt.Errorf("core: MC2 theta must be in [0,1], got %g", theta)
	}
	lo, hi, ok := db.TimeRange()
	if !ok {
		return nil, nil
	}
	var out []Convoy
	emit := func(ch *mcChain) {
		if len(ch.common) == 0 {
			return
		}
		out = append(out, Convoy{Objects: ch.common, Start: ch.start, End: ch.end})
	}
	var live []*mcChain
	src := newSource(p.ClusterKey(), DefaultClusterer, DefaultChurnThreshold, nil)
	cur := db.Sweep(nil).Cursor()
	for i, n := int64(0), model.TickSpan(lo, hi); i < n; i++ {
		t := lo + model.Tick(i)
		ids, pts := cur.At(t)
		clusters := src.Cluster(TickSnapshot{T: t, IDs: ids, Pts: pts})
		extended := make([]bool, len(clusters))
		next := make([]*mcChain, 0, len(clusters))
		index := make(map[string]int)
		add := func(ch *mcChain) {
			key := fmt.Sprintf("%s|%s", setKey(ch.common), setKey(ch.tail))
			if i, dup := index[key]; dup {
				if ch.start < next[i].start {
					next[i].start = ch.start
				}
				return
			}
			index[key] = len(next)
			next = append(next, ch)
		}
		for _, ch := range live {
			survived := false
			for ci, c := range clusters {
				if jaccard(ch.tail, c) >= theta {
					survived = true
					extended[ci] = true
					add(&mcChain{
						common: intersectSorted(ch.common, c),
						tail:   c,
						start:  ch.start,
						end:    t,
					})
				}
			}
			if !survived {
				emit(ch)
			}
		}
		for ci, c := range clusters {
			if !extended[ci] {
				add(&mcChain{common: c, tail: c, start: t, end: t})
			}
		}
		live = next
	}
	for _, ch := range live {
		emit(ch)
	}
	return out, nil
}

// AccuracyReport quantifies how well a candidate answer set matches a
// reference answer set, using the appendix's definitions:
//
//	false positives % = |Rm − Rc| / |Rm| · 100
//	false negatives % = |Rc − Rm| / |Rc| · 100
//
// where membership is exact convoy equality (objects and interval).
type AccuracyReport struct {
	Reported       int     // |Rm|
	Reference      int     // |Rc|
	FalsePositives float64 // percentage
	FalseNegatives float64 // percentage
}

// CompareAnswers computes the accuracy of the reported set against the
// reference set.
func CompareAnswers(reported []Convoy, reference Result) AccuracyReport {
	rep := AccuracyReport{Reported: len(reported), Reference: len(reference)}
	refKeys := make(map[string]struct{}, len(reference))
	for _, c := range reference {
		refKeys[convoyKey(c)] = struct{}{}
	}
	repKeys := make(map[string]struct{}, len(reported))
	fp := 0
	for _, c := range reported {
		k := convoyKey(c)
		repKeys[k] = struct{}{}
		if _, ok := refKeys[k]; !ok {
			fp++
		}
	}
	fn := 0
	for _, c := range reference {
		if _, ok := repKeys[convoyKey(c)]; !ok {
			fn++
		}
	}
	if rep.Reported > 0 {
		rep.FalsePositives = 100 * float64(fp) / float64(rep.Reported)
	}
	if rep.Reference > 0 {
		rep.FalseNegatives = 100 * float64(fn) / float64(rep.Reference)
	}
	return rep
}

func convoyKey(c Convoy) string {
	return fmt.Sprintf("%d|%d|%s", c.Start, c.End, setKey(c.Objects))
}
