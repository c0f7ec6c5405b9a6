// Fixture: violations of the obs nil-sink contract — metric-bundle
// dereferences with no dominating nil check.
package pos

import "repro/internal/obs"

type comp struct {
	m *obs.PFSMetrics
	b *obs.BridgeMetrics
}

// Bad probes without guarding either sink.
func (c *comp) Bad() {
	c.m.Requests.Inc() // want "without a dominating nil check"
	c.b.Hits.Inc()     // want "without a dominating nil check"
}

// WrongGuard checks a different field than the one dereferenced.
func (c *comp) WrongGuard() {
	if c.b != nil {
		c.m.Requests.Inc() // want "without a dominating nil check"
	}
}

// Chain dereferences an accessor result that can never be nil-checked.
func Chain(s *obs.Set) int64 {
	return s.PFSMetrics().Requests.Value() // want "cannot be nil-checked"
}

// Closure shows that a guard outside a function literal does not
// dominate the code inside it — the closure may run later, after the
// bundle is swapped out.
func Closure(c *comp) func() {
	if c.m != nil {
		return func() {
			c.m.Requests.Inc() // want "without a dominating nil check"
		}
	}
	return nil
}
