package pagefile

import "testing"

func TestStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Writes: 5, Allocs: 2, Frees: 1}
	b := Stats{Reads: 4, Writes: 3, Allocs: 1, Frees: 0}
	if got := a.Sub(b); got != (Stats{Reads: 6, Writes: 2, Allocs: 1, Frees: 1}) {
		t.Fatalf("Sub = %v", got)
	}
	if a.String() == "" {
		t.Fatal("String empty")
	}
}
