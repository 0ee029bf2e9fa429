// Ablation benchmarks isolating the design choices behind the CuTS filter
// (described in internal/core/cuts.go's header comment, switched off one
// at a time through core.WithAblation): Lemma 2 box pruning, CuTS*
// partition clipping, dominated-candidate pruning, the actual-tolerance
// bounds (core.WithTolerance), and the grid index behind snapshot
// DBSCAN. Each switch changes only the runtime, never the answer (enforced
// by core's ablation tests).
package convoys_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/oracle"
)

// benchQuery times a full CuTS run under the given options on the Cattle
// profile — the shape that stresses the filter (long histories), which is
// where the ablation switches matter.
func benchQuery(b *testing.B, opts ...core.Option) {
	prof := datagen.Cattle(benchScale, benchSeed+100)
	db := prof.Generate()
	q := core.NewQuery(append(opts, core.WithParams(core.Params{M: prof.M, K: prof.K, Eps: prof.Eps}))...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Run(context.Background(), db); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationBoxPrune(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		benchQuery(b, core.WithVariant(core.VariantCuTS))
	})
	b.Run("off", func(b *testing.B) {
		benchQuery(b, core.WithVariant(core.VariantCuTS), core.WithAblation(true, false, false))
	})
}

func BenchmarkAblationClipTime(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		benchQuery(b, core.WithVariant(core.VariantCuTSStar))
	})
	b.Run("off", func(b *testing.B) {
		benchQuery(b, core.WithVariant(core.VariantCuTSStar), core.WithAblation(false, true, false))
	})
}

func BenchmarkAblationCandidatePruning(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		benchQuery(b, core.WithVariant(core.VariantCuTS))
	})
	b.Run("off", func(b *testing.B) {
		benchQuery(b, core.WithVariant(core.VariantCuTS), core.WithAblation(false, false, true))
	})
}

func BenchmarkAblationToleranceMode(b *testing.B) {
	b.Run("actual", func(b *testing.B) {
		benchQuery(b, core.WithVariant(core.VariantCuTSStar))
	})
	b.Run("global", func(b *testing.B) {
		benchQuery(b, core.WithVariant(core.VariantCuTSStar), core.WithTolerance(dbscan.GlobalTolerance))
	})
}

// BenchmarkAblationGridVsBrute isolates the snapshot-DBSCAN neighbor search
// (the inner loop of CMC and of the refinement step); the brute row is the
// oracle's all-pairs clustering.
func BenchmarkAblationGridVsBrute(b *testing.B) {
	r := rand.New(rand.NewSource(9))
	pts := make([]geom.Point, 600)
	for i := range pts {
		// Clustered blobs plus scatter, like a snapshot of the Taxi profile.
		if i%3 == 0 {
			cx, cy := float64(r.Intn(6))*300, float64(r.Intn(6))*300
			pts[i] = geom.Pt(cx+r.Float64()*60, cy+r.Float64()*60)
		} else {
			pts[i] = geom.Pt(r.Float64()*2000, r.Float64()*2000)
		}
	}
	b.Run("grid", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dbscan.Cluster(pts, 40, 3)
		}
	})
	ids := make([]model.ObjectID, len(pts))
	for i := range ids {
		ids[i] = i
	}
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			oracle.Clusters(ids, pts, 3, 40)
		}
	})
}
