package tsio

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/model"
)

// benchDB builds a mid-size database (100 objects × 500 samples).
func benchDB() *model.DB {
	r := rand.New(rand.NewSource(1))
	db := model.NewDB()
	for o := 0; o < 100; o++ {
		samples := make([]model.Sample, 0, 500)
		x, y := r.Float64()*1000, r.Float64()*1000
		for i := 0; i < 500; i++ {
			x += r.Float64()*4 - 2
			y += r.Float64()*4 - 2
			samples = append(samples, model.Sample{T: model.Tick(i), P: geom.Pt(x, y)})
		}
		tr, _ := model.NewTrajectory("", samples)
		db.Add(tr)
	}
	return db
}

// BenchmarkWriteCSV and BenchmarkReadCSV price the text codec on the
// database BenchmarkReadBinary/truck decodes and serve.BenchmarkQueryShell
// queries — Truck@1, 276 trajectories, 130 k samples — so the two formats'
// rows compare: what a client pays for uploading CSV instead of CTB.
func BenchmarkWriteCSV(b *testing.B) {
	db := datagen.Truck(1, 1).Generate()
	var buf bytes.Buffer
	b.ReportAllocs()
	for b.Loop() {
		buf.Reset()
		if err := WriteCSV(&buf, db); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkReadCSV(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, datagen.Truck(1, 1).Generate()); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ReadCSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	db := benchDB()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, db); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(buf.Len()))
	}
}

// BenchmarkReadBinary prices the CTB decoder on the two shapes the ladder
// uploads: Truck (276 short trajectories) and a Cattle herd (13 long ones).
func BenchmarkReadBinary(b *testing.B) {
	for _, prof := range []datagen.Profile{datagen.Truck(1, 1), datagen.Cattle(0.15, 1)} {
		var buf bytes.Buffer
		if err := WriteBinary(&buf, prof.Generate()); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(strings.ToLower(prof.Name), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for b.Loop() {
				if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// countingVisitor is the cheapest visitor that still looks at everything.
type countingVisitor struct {
	labelBytes int
	sum        float64
}

func (v *countingVisitor) Block(model.Tick, int) {}
func (v *countingVisitor) Position(l []byte, x, y float64) {
	v.labelBytes += len(l)
	v.sum += x + y
}

// BenchmarkTickBlockWalk prices parsing one tick block of 285 positions —
// a Commute or Truck tick — by the walker (validate and report, nothing
// kept) and by DecodeTickBlock (the same walk, materialised: a slice and
// one string per position).
func BenchmarkTickBlockWalk(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	blk := TickBlock{T: 1234}
	for i := 0; i < 285; i++ {
		blk.Positions = append(blk.Positions, TickPosition{Label: fmt.Sprintf("commuter-%03d", i), X: r.Float64() * 2000, Y: r.Float64() * 2000})
	}
	data := AppendTickBlock(nil, blk)
	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		var v countingVisitor
		for b.Loop() {
			if err := WalkTickBlock(data, &v); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for b.Loop() {
			if _, err := DecodeTickBlock(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
