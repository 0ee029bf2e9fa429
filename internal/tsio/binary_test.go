package tsio

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
)

func TestBinaryRoundTrip(t *testing.T) {
	db := sampleDB(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != db.Len() {
		t.Fatalf("object count %d vs %d", back.Len(), db.Len())
	}
	for id := 0; id < db.Len(); id++ {
		a, b := db.Traj(id), back.Traj(id)
		if a.Label != b.Label || a.Len() != b.Len() {
			t.Fatalf("object %d metadata mismatch", id)
		}
		for i := range a.Samples {
			if a.Samples[i] != b.Samples[i] {
				t.Fatalf("object %d sample %d: %v vs %v", id, i, b.Samples[i], a.Samples[i])
			}
		}
	}
}

func TestBinarySpecialValues(t *testing.T) {
	db := model.NewDB()
	// Finite extremes only: non-finite coordinates are rejected at read
	// time (see TestBinaryRejectsNonFinite).
	tr, err := model.NewTrajectory("weird", []model.Sample{
		{T: -1000, P: geom.Pt(-math.MaxFloat64, -0.0)},
		{T: 0, P: geom.Pt(math.SmallestNonzeroFloat64, math.MaxFloat64)},
		{T: 1 << 40, P: geom.Pt(-12345.6789, 1e-300)},
	})
	if err != nil {
		t.Fatal(err)
	}
	db.Add(tr)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, db); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := back.Traj(0)
	for i := range tr.Samples {
		if tr.Samples[i].T != got.Samples[i].T {
			t.Errorf("tick %d: %d vs %d", i, got.Samples[i].T, tr.Samples[i].T)
		}
		// Bit-exact floats (covers -0.0 and denormals).
		if math.Float64bits(tr.Samples[i].P.X) != math.Float64bits(got.Samples[i].P.X) ||
			math.Float64bits(tr.Samples[i].P.Y) != math.Float64bits(got.Samples[i].P.Y) {
			t.Errorf("sample %d not bit-exact: %v vs %v", i, got.Samples[i].P, tr.Samples[i].P)
		}
	}
}

func TestBinaryEmptyDB(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, model.NewDB()); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil || back.Len() != 0 {
		t.Errorf("empty round trip: %v %v", back, err)
	}
}

func TestBinaryCorruption(t *testing.T) {
	db := sampleDB(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, db); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	// Bad magic.
	bad := append([]byte{}, full...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(full); cut += 3 {
		if _, err := ReadBinary(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	// Implausible object count.
	huge := append([]byte{}, binaryMagic[:]...)
	huge = append(huge, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
	if _, err := ReadBinary(bytes.NewReader(huge)); err == nil {
		t.Error("implausible object count accepted")
	}
}

// oversizedCounts are CTB streams whose length prefixes promise more than
// the input holds: for each of the three prefixes a 2³¹−1 "bomb" and a
// count just one above what the remaining bytes could encode, padded so
// that the named check is the one that fires. The first is the 11-byte
// upload that used to make the reader reserve 2³¹ samples (51 GB) and take
// the process down with an out-of-memory throw no recover can catch.
var oversizedCounts = []struct {
	name, data, rejectedAt string
}{
	{"11-byte upload", "CTB1\x01\x00\xff\xff\xff\xff\x07", "object count"},
	{"sample count bomb", "CTB1\x01\x00\xff\xff\xff\xff\x07" + strings.Repeat("\x00", 16), "sample count"},
	{"three samples in room for two", "CTB1\x01\x00\x03" + strings.Repeat("\x00", 17+17+16), "sample count"},
	{"label length bomb", "CTB1\x01\xff\xff\xff\xff\x07" + strings.Repeat("\x00", 18), "label length"},
	{"19-byte label in 18 bytes", "CTB1\x01\x13" + strings.Repeat("\x00", 18), "label length"},
	{"three objects in room for two", "CTB1\x03" + strings.Repeat("\x00\x01"+strings.Repeat("\x00", 17), 2), "object count"},
}

// Regression: counts and lengths are bounded by the bytes that are left
// before they size anything, so a hostile prefix costs an error, not memory.
func TestDecodeRejectsCountsBeyondInput(t *testing.T) {
	for _, tc := range oversizedCounts {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeBinary([]byte(tc.data))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.rejectedAt) {
			t.Errorf("%s: error %v, want a rejected %s", tc.name, err, tc.rejectedAt)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Errorf("%s: rejecting %d bytes of input allocated %d bytes", tc.name, len(tc.data), grew)
		}
		if _, err := ReadBinary(strings.NewReader(tc.data)); err == nil {
			t.Errorf("%s: accepted by ReadBinary", tc.name)
		}
	}
	// The same shapes with honest counts decode: two objects of one sample,
	// one object of two.
	for _, honest := range []string{
		"CTB1\x02" + strings.Repeat("\x00\x01"+strings.Repeat("\x00", 17), 2),
		"CTB1\x01\x00\x02" + strings.Repeat("\x00", 17+17),
	} {
		if db, err := DecodeBinary([]byte(honest)); err != nil || db.SumTrajLen() != 2 {
			t.Fatalf("honest counts rejected: %v, %v", db, err)
		}
	}
}

func TestBinarySmallerThanCSVOnRegularData(t *testing.T) {
	// Regularly sampled full-precision GPS-like data: tick deltas cost one
	// byte and coordinates 16, while CSV spells every float out (~18 chars
	// each at full precision).
	db := model.NewDB()
	r := rand.New(rand.NewSource(4))
	var samples []model.Sample
	for i := model.Tick(0); i < 2000; i++ {
		samples = append(samples, model.Sample{
			T: i,
			P: geom.Pt(r.Float64()*5000, r.Float64()*5000),
		})
	}
	tr, _ := model.NewTrajectory("o", samples)
	db.Add(tr)
	var csvBuf, binBuf bytes.Buffer
	if err := WriteCSV(&csvBuf, db); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&binBuf, db); err != nil {
		t.Fatal(err)
	}
	if binBuf.Len() >= csvBuf.Len() {
		t.Errorf("binary (%d B) not smaller than CSV (%d B)", binBuf.Len(), csvBuf.Len())
	}
}

func TestPropBinaryRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(88))
	for iter := 0; iter < 40; iter++ {
		db := model.NewDB()
		for o := 0; o < r.Intn(8); o++ {
			var samples []model.Sample
			tick := model.Tick(r.Int63n(1000) - 500)
			n := 1 + r.Intn(50)
			for i := 0; i < n; i++ {
				samples = append(samples, model.Sample{
					T: tick,
					P: geom.Pt(r.NormFloat64()*1e6, r.NormFloat64()*1e-6),
				})
				tick += model.Tick(1 + r.Int63n(1000))
			}
			tr, err := model.NewTrajectory("", samples)
			if err != nil {
				t.Fatal(err)
			}
			db.Add(tr)
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, db); err != nil {
			t.Fatal(err)
		}
		back, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != db.Len() {
			t.Fatal("object count changed")
		}
		for id := 0; id < db.Len(); id++ {
			a, b := db.Traj(id), back.Traj(id)
			if a.Len() != b.Len() {
				t.Fatal("sample count changed")
			}
			for i := range a.Samples {
				if a.Samples[i] != b.Samples[i] {
					t.Fatalf("sample %d changed: %v vs %v", i, b.Samples[i], a.Samples[i])
				}
			}
		}
	}
}
