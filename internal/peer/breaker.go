package peer

// Per-peer circuit breakers. A holder that keeps failing serves (cut
// behind a partition, crashed mid-serve, persistently flaky fabric) stops
// being selected after Threshold consecutive failures: its breaker opens
// and Acquire skips it via the same exclusion path callers use, so a
// booting node degrades straight to the PFS instead of burning its
// attempt budget on a dead peer. After Cooldown skipped selections the
// breaker moves to half-open and lets one probe through; a successful
// serve closes it, a failed one reopens it for another cooldown.
//
// Cooldown is counted in selection events rather than wall time, so
// chaos runs stay deterministic: the same seeded workload trips, probes,
// and recovers the same breakers every run.

// BreakerPolicy parameterizes per-peer circuit breakers. The zero value
// disables them — existing deployments keep their failover ladder
// unchanged unless a policy is set.
type BreakerPolicy struct {
	// Threshold is how many consecutive failed serves open a peer's
	// breaker. Zero or negative disables breakers entirely.
	Threshold int
	// Cooldown is how many skipped selections an open breaker waits
	// before allowing a half-open probe. Zero or negative means
	// DefaultBreakerCooldown.
	Cooldown int
}

// Defaults for BreakerPolicy's knobs.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 2
)

// DefaultBreakerPolicy returns enabled breakers with default bounds.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{Threshold: DefaultBreakerThreshold, Cooldown: DefaultBreakerCooldown}
}

// Enabled reports whether the policy turns breakers on.
func (p BreakerPolicy) Enabled() bool { return p.Threshold > 0 }

// cooldown is the normalized cooldown length.
func (p BreakerPolicy) cooldown() int {
	if p.Cooldown <= 0 {
		return DefaultBreakerCooldown
	}
	return p.Cooldown
}

// breakerState is the classic three-state circuit.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String renders the state for health dumps.
func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// breaker is one node's circuit state.
type breaker struct {
	state breakerState
	fails int // consecutive failed serves while closed
	cool  int // skipped selections remaining before a half-open probe
}

// SetBreakerPolicy installs (or, with a zero policy, removes) per-peer
// circuit breakers, resetting all circuit state. Call before handing the
// index to a deployment.
func (ix *Index) SetBreakerPolicy(p BreakerPolicy) {
	if ix == nil {
		return
	}
	ix.bmu.Lock()
	ix.bpol = p
	ix.breakers = make(map[string]*breaker)
	ix.bmu.Unlock()
}

// BreakerState reports a node's circuit state: "closed", "open", or
// "half-open" — or "" when breakers are disabled. What
// `squirrelctl health` prints per peer.
func (ix *Index) BreakerState(node string) string {
	if ix == nil {
		return ""
	}
	ix.bmu.Lock()
	defer ix.bmu.Unlock()
	if !ix.bpol.Enabled() {
		return ""
	}
	b := ix.breakers[node]
	if b == nil {
		return breakerClosed.String()
	}
	return b.state.String()
}

// RecordServe feeds one serve outcome into node's breaker and returns
// whether this very outcome tripped it open. Success closes a half-open
// (or open) breaker and clears the failure streak; failure extends the
// streak, trips a closed breaker at Threshold, and sends a failed
// half-open probe straight back to open. No-op while breakers are
// disabled.
func (ix *Index) RecordServe(node string, ok bool) (tripped bool) {
	if ix == nil {
		return false
	}
	ix.bmu.Lock()
	defer ix.bmu.Unlock()
	if !ix.bpol.Enabled() {
		return false
	}
	b := ix.breakers[node]
	if b == nil {
		b = &breaker{}
		ix.breakers[node] = b
	}
	switch {
	case ok:
		if b.state != breakerClosed {
			ix.counters.Add("breaker.close", 1)
		}
		b.state, b.fails = breakerClosed, 0
	case b.state == breakerHalfOpen:
		// Failed probe: straight back to open for another cooldown.
		b.state, b.cool = breakerOpen, ix.bpol.cooldown()
		ix.counters.Add("breaker.reopen", 1)
	default:
		b.fails++
		if b.state == breakerClosed && b.fails >= ix.bpol.Threshold {
			b.state, b.cool, b.fails = breakerOpen, ix.bpol.cooldown(), 0
			ix.counters.Add("breaker.trip", 1)
			return true
		}
	}
	return false
}

// bpolEnabled reads whether breakers are on (selection checks it before
// composing the breaker predicate onto the caller's exclusion hook).
func (ix *Index) bpolEnabled() bool {
	ix.bmu.Lock()
	defer ix.bmu.Unlock()
	return ix.bpol.Enabled()
}

// breakerSkip decides, during source selection, whether node must be
// skipped because its breaker is open. Each skip counts against the
// cooldown; the selection that exhausts it becomes the half-open probe
// and is allowed through. Called with ix.mu held — the lock order is
// one-way (ix.mu → bmu), and bmu sections never touch ix.mu.
func (ix *Index) breakerSkip(node string) bool {
	ix.bmu.Lock()
	defer ix.bmu.Unlock()
	if !ix.bpol.Enabled() {
		return false
	}
	b := ix.breakers[node]
	if b == nil || b.state != breakerOpen {
		return false
	}
	b.cool--
	if b.cool <= 0 {
		b.state = breakerHalfOpen
		ix.counters.Add("breaker.probe", 1)
		return false
	}
	ix.counters.Add("breaker.skip", 1)
	return true
}
