// Package retry implements the capped jittered exponential backoff
// shared by every reconnecting client in the tree: the replication
// follower re-dialling its primary after a stream fault, and
// topoquery -watch re-subscribing after a cut stream.
//
// The schedule is exponential from Base, capped at Cap, with equal
// jitter (half the delay fixed, half uniformly random) so a fleet of
// clients knocked over by the same event spreads its retries out
// instead of stampeding back in lockstep.
package retry

import (
	"context"
	"math/rand"
	"time"
)

// Default backoff bounds, so every caller backs off the same way
// unless tuned.
const (
	DefaultBase = 5 * time.Millisecond
	DefaultCap  = time.Second
)

// Policy is a backoff schedule. The zero value uses the defaults.
type Policy struct {
	// Base is the first retry's nominal delay (default DefaultBase).
	Base time.Duration
	// Cap bounds the nominal delay (default DefaultCap).
	Cap time.Duration
}

func (p Policy) withDefaults() Policy {
	if p.Base <= 0 {
		p.Base = DefaultBase
	}
	if p.Cap <= 0 {
		p.Cap = DefaultCap
	}
	if p.Cap < p.Base {
		p.Cap = p.Base
	}
	return p
}

// Delay returns the sleep before retry number attempt (0-based):
// capped exponential with equal jitter (half fixed, half random, so
// synchronized clients spread out).
func (p Policy) Delay(attempt int, rng *rand.Rand) time.Duration {
	p = p.withDefaults()
	d := p.Cap
	if attempt < 30 { // avoid shift overflow
		if e := p.Base << uint(attempt); e > 0 && e < p.Cap {
			d = e
		}
	}
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
}

// Sleep blocks for d or until ctx is done, returning ctx.Err() in the
// latter case — the canonical way to apply a Delay inside a reconnect
// loop without outliving its context.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
