// Fixture: the guarded probe idioms the nil-sink contract prescribes.
// Must be clean.
package neg

import "repro/internal/obs"

type comp struct {
	m *obs.PFSMetrics
	b *obs.BridgeMetrics
}

// Guarded is the canonical probe site: one branch per bundle.
func (c *comp) Guarded(n int64) {
	if c.m != nil {
		c.m.Requests.Inc()
		c.m.SubRequests.Add(n)
	}
	if c.b != nil {
		c.b.Hits.Inc()
	}
}

// EarlyReturn guards with the wireMetrics-style early exit, including
// the || form whose fallthrough still implies both pointers are
// non-nil.
func (c *comp) EarlyReturn() {
	if c.m == nil || c.b == nil {
		return
	}
	c.m.Requests.Inc()
	c.b.Hits.Inc()
}

// ElseBranch guards through the else arm of an == nil test.
func (c *comp) ElseBranch() {
	if c.m == nil {
		// disabled: nothing to record
	} else {
		c.m.Fragments.Inc()
	}
}

// Param guards a bundle received as an argument.
func Param(m *obs.PFSMetrics) {
	if m == nil {
		return
	}
	m.Requests.Inc()
}

// Bound binds an accessor result and guards it in the if-init form.
func Bound(s *obs.Set) {
	if m := s.PFSMetrics(); m != nil {
		m.Requests.Inc()
	}
}

// Conjoined piggybacks the nil check onto another condition with &&.
func Conjoined(c *comp, hot bool) {
	if hot && c.m != nil {
		c.m.Requests.Inc()
	}
}
