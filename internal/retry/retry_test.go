package retry

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestDelayBounds pins the equal-jitter envelope: attempt n's delay is
// in [nominal/2, nominal] where nominal = min(Base<<n, Cap).
func TestDelayBounds(t *testing.T) {
	p := Policy{Base: 5 * time.Millisecond, Cap: time.Second}
	rng := rand.New(rand.NewSource(1))
	for attempt := 0; attempt < 40; attempt++ {
		nominal := p.Cap
		if attempt < 30 {
			if e := p.Base << uint(attempt); e > 0 && e < p.Cap {
				nominal = e
			}
		}
		for i := 0; i < 200; i++ {
			d := p.Delay(attempt, rng)
			if d < nominal/2 || d > nominal {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, nominal/2, nominal)
			}
		}
	}
}

// TestDelayZeroPolicy checks the zero value picks up the defaults.
func TestDelayZeroPolicy(t *testing.T) {
	var p Policy
	rng := rand.New(rand.NewSource(3))
	if d := p.Delay(0, rng); d < DefaultBase/2 || d > DefaultBase {
		t.Fatalf("zero-policy first delay %v outside [%v, %v]", d, DefaultBase/2, DefaultBase)
	}
	for i := 0; i < 100; i++ {
		if d := p.Delay(100, rng); d > DefaultCap {
			t.Fatalf("zero-policy delay %v exceeds default cap", d)
		}
	}
}

// TestDelayJitterSpreads checks the delays are not all identical (the
// whole point of the jitter).
func TestDelayJitterSpreads(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Cap: time.Second}
	rng := rand.New(rand.NewSource(4))
	seen := map[time.Duration]bool{}
	for i := 0; i < 50; i++ {
		seen[p.Delay(3, rng)] = true
	}
	if len(seen) < 10 {
		t.Fatalf("jitter produced only %d distinct delays out of 50", len(seen))
	}
}

// TestSleepCancel checks Sleep returns promptly when the context dies.
func TestSleepCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := Sleep(ctx, 10*time.Second); err == nil {
		t.Fatal("Sleep returned nil on a dead context")
	}
	if time.Since(start) > time.Second {
		t.Fatal("Sleep did not return promptly on cancellation")
	}
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("Sleep: %v", err)
	}
}
