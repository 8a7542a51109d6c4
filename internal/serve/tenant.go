package serve

import (
	"sync"
	"time"
)

// Tier is one tenant QoS class. Admission is a token bucket (Rate/Burst);
// the solver knobs map directly onto the analyzer's per-query budgets, so a
// tier is both "how often may you ask" and "how hard may the solver work for
// you" — the MaxConflicts/QueryTimeout budgets from the trust-model work
// double as the QoS ladder.
type Tier struct {
	// Name labels the tier in stats and logs.
	Name string `json:"name"`
	// Rate is the sustained request admission rate in requests/second;
	// 0 or negative means unlimited.
	Rate float64 `json:"rate"`
	// Burst is the bucket depth (minimum 1 when rate-limited).
	Burst float64 `json:"burst"`
	// MaxConflicts bounds SMT conflicts per query (0 = unlimited).
	MaxConflicts int64 `json:"max_conflicts"`
	// MaxPivots bounds simplex pivots per query (0 = unlimited).
	MaxPivots int64 `json:"max_pivots"`
	// QueryTimeout bounds wall-clock time per solver query (0 = unlimited).
	QueryTimeout time.Duration `json:"query_timeout"`
}

// TenantStats counts one tenant's admission outcomes.
type TenantStats struct {
	Tier      string `json:"tier"`
	Admitted  uint64 `json:"admitted"`
	Throttled uint64 `json:"throttled"`
}

type tenantState struct {
	tier      Tier
	tokens    float64
	last      time.Time
	admitted  uint64
	throttled uint64
}

// Tenants maps tenant names to tiers and enforces per-tenant token-bucket
// admission. The clock is injectable so tests drive refill logically.
type Tenants struct {
	mu     sync.Mutex
	def    Tier
	tiers  map[string]Tier
	states map[string]*tenantState
	now    func() time.Time
}

// NewTenants builds the tenant table. def is the tier for unknown tenants;
// tiers maps specific tenant names to their classes; now is the clock (nil =
// time.Now).
func NewTenants(def Tier, tiers map[string]Tier, now func() time.Time) *Tenants {
	if now == nil {
		now = time.Now
	}
	t := &Tenants{def: def, tiers: make(map[string]Tier, len(tiers)), states: make(map[string]*tenantState), now: now}
	for name, tier := range tiers {
		t.tiers[name] = tier
	}
	return t
}

// TierFor returns the tier tenant runs under.
func (t *Tenants) TierFor(tenant string) Tier {
	t.mu.Lock()
	defer t.mu.Unlock()
	if tier, ok := t.tiers[tenant]; ok {
		return tier
	}
	return t.def
}

// Admit consumes one token from tenant's bucket, reporting whether the
// request may proceed.
func (t *Tenants) Admit(tenant string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.states[tenant]
	if !ok {
		tier := t.def
		if tt, found := t.tiers[tenant]; found {
			tier = tt
		}
		burst := tier.Burst
		if burst < 1 {
			burst = 1
		}
		st = &tenantState{tier: tier, tokens: burst, last: t.now()}
		t.states[tenant] = st
	}
	if st.tier.Rate <= 0 {
		st.admitted++
		return true
	}
	now := t.now()
	burst := st.tier.Burst
	if burst < 1 {
		burst = 1
	}
	st.tokens += now.Sub(st.last).Seconds() * st.tier.Rate
	if st.tokens > burst {
		st.tokens = burst
	}
	st.last = now
	if st.tokens < 1 {
		st.throttled++
		return false
	}
	st.tokens--
	st.admitted++
	return true
}

// Stats snapshots per-tenant admission counters.
func (t *Tenants) Stats() map[string]TenantStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]TenantStats, len(t.states))
	for name, st := range t.states {
		out[name] = TenantStats{Tier: st.tier.Name, Admitted: st.admitted, Throttled: st.throttled}
	}
	return out
}
