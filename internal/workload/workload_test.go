package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"mbrtopo/internal/geom"
	"mbrtopo/internal/topo"
)

func TestSizeClasses(t *testing.T) {
	if Small.String() != "small" || Medium.String() != "medium" || Large.String() != "large" {
		t.Fatal("class names broken")
	}
	if !(Small.MaxAreaFraction() < Medium.MaxAreaFraction() &&
		Medium.MaxAreaFraction() < Large.MaxAreaFraction()) {
		t.Fatal("area fractions not increasing")
	}
	if len(AllSizeClasses()) != 3 {
		t.Fatal("AllSizeClasses broken")
	}
}

func TestPaperDatasetShape(t *testing.T) {
	for _, class := range AllSizeClasses() {
		d := NewDataset(class, 10000, 100, 42)
		if len(d.Items) != 10000 || len(d.Queries) != 100 {
			t.Fatalf("%v: %d items, %d queries", class, len(d.Items), len(d.Queries))
		}
		world := World()
		maxArea := class.MaxAreaFraction() * world.Area()
		seen := map[uint64]bool{}
		for _, it := range d.Items {
			if !it.Rect.Valid() || !world.ContainsRect(it.Rect) {
				t.Fatalf("%v: rect %v outside world or degenerate", class, it.Rect)
			}
			if a := it.Rect.Area(); a > maxArea*(1+1e-9) {
				t.Fatalf("%v: rect area %g exceeds cap %g", class, a, maxArea)
			}
			if seen[it.OID] {
				t.Fatalf("duplicate OID %d", it.OID)
			}
			seen[it.OID] = true
		}
		for _, q := range d.Queries {
			if !q.Valid() || q.Area() > maxArea*(1+1e-9) {
				t.Fatalf("%v: bad query rect %v", class, q)
			}
		}
	}
}

func TestDatasetDeterministic(t *testing.T) {
	a := NewDataset(Medium, 10000, 100, 7)
	b := NewDataset(Medium, 10000, 100, 7)
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			t.Fatal("dataset not reproducible for equal seeds")
		}
	}
	c := NewDataset(Medium, 10000, 100, 8)
	same := true
	for i := range a.Items {
		if a.Items[i] != c.Items[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestClusteredDataset(t *testing.T) {
	d := ClusteredDataset(Medium, 2000, 50, 5, 3)
	if len(d.Items) != 2000 || len(d.Queries) != 50 {
		t.Fatal("clustered dataset shape")
	}
	world := World()
	for _, it := range d.Items {
		if !it.Rect.Valid() || !world.ContainsRect(it.Rect) {
			t.Fatalf("clustered rect %v invalid", it.Rect)
		}
	}
}

func TestObjectsForCrisp(t *testing.T) {
	d := NewDataset(Medium, 200, 10, 5)
	objs := d.ObjectsFor(9)
	if len(objs) != 200 {
		t.Fatalf("%d objects", len(objs))
	}
	for _, it := range d.Items {
		pg := objs[it.OID]
		if err := pg.Validate(); err != nil {
			t.Fatalf("object %d invalid: %v", it.OID, err)
		}
		b := pg.Bounds()
		const tol = 1e-9
		if abs(b.Min.X-it.Rect.Min.X) > tol || abs(b.Min.Y-it.Rect.Min.Y) > tol ||
			abs(b.Max.X-it.Rect.Max.X) > tol || abs(b.Max.Y-it.Rect.Max.Y) > tol {
			t.Fatalf("object %d MBR %v not crisp in %v", it.OID, b, it.Rect)
		}
	}
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func TestPolygonInRectCrisp(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		r := RandomRect(rng, Large)
		pg := PolygonInRect(rng, r, 3+rng.Intn(9))
		if err := pg.Validate(); err != nil {
			t.Fatalf("invalid polygon: %v", err)
		}
		b := pg.Bounds()
		if abs(b.Min.X-r.Min.X) > 1e-9 || abs(b.Max.X-r.Max.X) > 1e-9 ||
			abs(b.Min.Y-r.Min.Y) > 1e-9 || abs(b.Max.Y-r.Max.Y) > 1e-9 {
			t.Fatalf("MBR %v not crisp in %v", b, r)
		}
	}
}

// TestPairInRelationAllRelations: the generator must deliver valid
// pairs for every relation (this also guards the property tests in
// package mbr against silent generator degradation).
func TestPairInRelationAllRelations(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, r := range topo.All() {
		for i := 0; i < 25; i++ {
			p, q := PairInRelation(rng, r)
			if got := geom.Relate(p, q); got != r {
				t.Fatalf("PairInRelation(%v) produced %v", r, got)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := NewDataset(Small, 50, 7, 1)
	var buf bytes.Buffer
	if err := WriteItemsCSV(&buf, d.Items); err != nil {
		t.Fatal(err)
	}
	items, err := ReadItemsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(d.Items) {
		t.Fatalf("%d items back", len(items))
	}
	for i := range items {
		if items[i] != d.Items[i] {
			t.Fatalf("item %d mismatch", i)
		}
	}
	buf.Reset()
	if err := WriteRectsCSV(&buf, d.Queries); err != nil {
		t.Fatal(err)
	}
	rects, err := ReadRectsCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rects {
		if rects[i] != d.Queries[i] {
			t.Fatalf("query %d mismatch", i)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadItemsCSV(bytes.NewBufferString("x,1,2,3,4\n")); err == nil {
		t.Error("bad oid accepted")
	}
	if _, err := ReadItemsCSV(bytes.NewBufferString("1,a,2,3,4\n")); err == nil {
		t.Error("bad coordinate accepted")
	}
	if _, err := ReadItemsCSV(bytes.NewBufferString("1,5,5,1,6\n")); err == nil {
		t.Error("degenerate rect accepted")
	}
	if _, err := ReadRectsCSV(bytes.NewBufferString("1,2,3\n")); err == nil {
		t.Error("short row accepted")
	}
	if _, err := ReadRectsCSV(bytes.NewBufferString("3,3,1,4\n")); err == nil {
		t.Error("degenerate query accepted")
	}
}

// TestCSVRejectsNonFinite: strconv.ParseFloat reads "inf" and "nan",
// and a rectangle from -inf to inf passes Rect.Valid, so a data file
// could load an object no answer can ever carry to the wire. Both
// readers refuse such a row and name it.
func TestCSVRejectsNonFinite(t *testing.T) {
	for _, row := range []string{"1,-inf,0,inf,1", "7,0,0,1,+Inf", "3,NaN,0,1,1"} {
		oid, _, _ := strings.Cut(row, ",")
		_, err := ReadItemsCSV(strings.NewReader("9,0,0,1,1\n" + row + "\n"))
		if err == nil || !strings.Contains(err.Error(), "oid "+oid+":") || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("ReadItemsCSV(%q): %v, want a non-finite coordinate error naming oid %s", row, err, oid)
		}
		_, err = ReadRectsCSV(strings.NewReader("0,0,1,1\n" + row[len(oid)+1:] + "\n"))
		if err == nil || !strings.Contains(err.Error(), "row 2:") || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("ReadRectsCSV(%q): %v, want a non-finite coordinate error naming row 2", row, err)
		}
	}
}
