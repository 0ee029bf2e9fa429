package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/model"
)

func ids(xs ...int) []model.ObjectID { return xs }

func TestIntersectSorted(t *testing.T) {
	cases := []struct{ a, b, want []model.ObjectID }{
		{ids(1, 2, 3), ids(2, 3, 4), ids(2, 3)},
		{ids(1, 2), ids(3, 4), nil},
		{ids(), ids(1), nil},
		{ids(1, 5, 9), ids(1, 5, 9), ids(1, 5, 9)},
		{ids(1, 3, 5, 7), ids(2, 3, 6, 7), ids(3, 7)},
	}
	for _, c := range cases {
		got := intersectSorted(c.a, c.b)
		if !equalSorted(got, c.want) {
			t.Errorf("intersect(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestUnionSorted(t *testing.T) {
	cases := []struct{ a, b, want []model.ObjectID }{
		{ids(1, 3), ids(2, 4), ids(1, 2, 3, 4)},
		{ids(), ids(1), ids(1)},
		{ids(1, 2), ids(1, 2), ids(1, 2)},
		{ids(5), ids(1, 9), ids(1, 5, 9)},
	}
	for _, c := range cases {
		got := unionSorted(c.a, c.b)
		if !equalSorted(got, c.want) {
			t.Errorf("union(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSubsetAndContains(t *testing.T) {
	if !subsetSorted(ids(2, 4), ids(1, 2, 3, 4)) {
		t.Error("subset failed")
	}
	if subsetSorted(ids(2, 5), ids(1, 2, 3, 4)) {
		t.Error("non-subset accepted")
	}
	if !subsetSorted(nil, ids(1)) {
		t.Error("empty set must be subset")
	}
	if subsetSorted(ids(1, 2, 3), ids(1, 2)) {
		t.Error("bigger set accepted as subset")
	}
	if !containsSorted(ids(1, 4, 9), 4) || containsSorted(ids(1, 4, 9), 5) {
		t.Error("containsSorted misbehaves")
	}
	if containsSorted(nil, 1) {
		t.Error("empty contains")
	}
}

func TestSetKeyDistinguishes(t *testing.T) {
	a, b := ids(1, 2, 3), ids(1, 2, 4)
	if setKey(a) == setKey(b) {
		t.Error("different sets share a key")
	}
	if setKey(a) != setKey(ids(1, 2, 3)) {
		t.Error("identical sets have different keys")
	}
	if setKey(nil) != setKey(ids()) {
		t.Error("empty set keys differ")
	}
	// Delta encoding must not confuse {1,2} with {1,12} etc.
	if setKey(ids(1, 2)) == setKey(ids(1, 12)) {
		t.Error("key collision on delta encoding")
	}
	if setKey(ids(3)) == setKey(ids(1, 2)) {
		t.Error("key collision across lengths")
	}
}

func randomSortedSet(r *rand.Rand, maxLen, maxVal int) []model.ObjectID {
	n := r.Intn(maxLen + 1)
	seen := map[int]bool{}
	var out []model.ObjectID
	for len(out) < n {
		v := r.Intn(maxVal)
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

func TestPropSetAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 500; i++ {
		a := randomSortedSet(r, 12, 40)
		b := randomSortedSet(r, 12, 40)
		inter := intersectSorted(a, b)
		uni := unionSorted(a, b)
		if !subsetSorted(inter, a) || !subsetSorted(inter, b) {
			t.Fatalf("intersection not subset: %v %v -> %v", a, b, inter)
		}
		if !subsetSorted(a, uni) || !subsetSorted(b, uni) {
			t.Fatalf("union not superset: %v %v -> %v", a, b, uni)
		}
		if len(inter)+len(uni) != len(a)+len(b) {
			t.Fatalf("inclusion-exclusion broken: %v %v", a, b)
		}
		for _, x := range inter {
			if !containsSorted(a, x) || !containsSorted(b, x) {
				t.Fatalf("intersection member %d missing", x)
			}
		}
		// Keys are injective over these sets.
		if setKey(a) == setKey(b) && !equalSorted(a, b) {
			t.Fatalf("key collision: %v %v", a, b)
		}
	}
}

func TestPropSetKeyRoundtrip(t *testing.T) {
	f := func(raw []uint8) bool {
		seen := map[int]bool{}
		var s []model.ObjectID
		for _, v := range raw {
			if !seen[int(v)] {
				seen[int(v)] = true
				s = append(s, int(v))
			}
		}
		sort.Ints(s)
		return setKey(s) == setKey(append([]model.ObjectID(nil), s...))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

// TestCandidateSetHashCollision forces every object set onto one hash: the
// set must still merge equal object sets (earliest start, unioned support)
// and keep unequal ones apart, and a Monitor chaining through such a set
// must emit exactly what one with the real hash emits.
func TestCandidateSetHashCollision(t *testing.T) {
	collide := func([]model.ObjectID) uint64 { return 7 }
	s := candidateSet{index: map[uint64]int{}, hash: collide}
	s.add(ids(1, 2), ids(1, 2), 5, 9)
	s.add(ids(3, 4), ids(3, 4), 2, 9)
	s.add(ids(1, 2), ids(1, 2, 8), 3, 9)
	s.add(ids(1, 2, 3), nil, 4, 9)
	s.add(ids(3, 4), ids(3, 4), 6, 9)
	want := []candidate{
		{objs: ids(1, 2), support: ids(1, 2, 8), start: 3, end: 9},
		{objs: ids(3, 4), support: ids(3, 4), start: 2, end: 9},
		{objs: ids(1, 2, 3), start: 4, end: 9},
	}
	if len(s.cands) != len(want) {
		t.Fatalf("%d candidates, want %d", len(s.cands), len(want))
	}
	for i, w := range want {
		if got := *s.cands[i]; !reflect.DeepEqual(got, w) {
			t.Errorf("candidate %d = %+v, want %+v", i, got, w)
		}
	}

	r := rand.New(rand.NewSource(5))
	p := Params{M: 2, K: 2, Eps: 1}
	plain, forced := &Monitor{p: p}, &Monitor{p: p, next: candidateSet{hash: collide}}
	emitted := 0
	for tick := model.Tick(0); tick < 300; tick++ {
		var clusters [][]model.ObjectID
		for c := r.Intn(4); c > 0; c-- {
			if set := randomSortedSet(r, 5, 8); len(set) >= p.M {
				clusters = append(clusters, set)
			}
		}
		a, _ := plain.AdvanceClusters(tick, clusters)
		b, _ := forced.AdvanceClusters(tick, clusters)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("tick %d: colliding hash emitted %v, real hash %v", tick, b, a)
		}
		emitted += len(a)
	}
	if a, b := plain.Close(), forced.Close(); !reflect.DeepEqual(a, b) {
		t.Fatalf("flush: colliding hash emitted %v, real hash %v", b, a)
	}
	if emitted == 0 {
		t.Fatal("the cluster stream closed no convoy; the comparison would be vacuous")
	}
}
