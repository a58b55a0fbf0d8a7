package fabric

import (
	"netrs/internal/sim"
	"netrs/internal/topo"
)

// Monitor is the NetRS monitor of §IV-D: match-action counters in a ToR
// switch's egress pipeline. It watches monitor-visible responses leaving
// the network toward the rack's hosts, classifies each by comparing the
// packet's source marker with the ToR's own (pod, rack) location, and
// accumulates per-traffic-group tier counts for the controller.
type Monitor struct {
	op *Operator

	windowStart sim.Time
	// counts holds [tier0, tier1, tier2] per group, indexed by the group's
	// slot in the operator's Rules.
	counts    [][3]uint64
	total     uint64
	unmatched uint64

	// Lifetime counters, never reset: the windowed accessors above cover
	// the span since the last Snapshot/ResetWindow only.
	totalAll     uint64
	unmatchedAll uint64
}

func newMonitor(op *Operator) *Monitor { return &Monitor{op: op} }

// count records one response delivered to dst.
func (m *Monitor) count(p *Packet, dst topo.NodeID) {
	slot, ok := m.op.rules.hostSlot(dst)
	if !ok {
		m.unmatched++
		m.unmatchedAll++
		return
	}
	if slot >= len(m.counts) {
		m.counts = append(m.counts, make([][3]uint64, slot+1-len(m.counts))...)
	}
	c := &m.counts[slot]
	switch {
	case p.HasSM && int(p.SM.Rack) == m.op.rack:
		c[topo.TierToR]++
	case p.HasSM && int(p.SM.Pod) == m.op.pod:
		c[topo.TierAgg]++
	default:
		c[topo.TierCore]++
	}
	m.total++
	m.totalAll++
}

// Total returns the number of counted responses in the current window.
func (m *Monitor) Total() uint64 { return m.total }

// TotalAll returns the number of counted responses over the monitor's
// lifetime, across window resets.
func (m *Monitor) TotalAll() uint64 { return m.totalAll }

// Unmatched returns, for the current window, responses whose destination
// had no group binding.
func (m *Monitor) Unmatched() uint64 { return m.unmatched }

// UnmatchedAll returns the lifetime unmatched count, across window resets.
func (m *Monitor) UnmatchedAll() uint64 { return m.unmatchedAll }

// Snapshot returns per-group tier rates in requests per second over the
// window since the last snapshot, for the groups counted in it, then
// resets the counters. It reports ok=false when the window is empty (no
// time elapsed).
func (m *Monitor) Snapshot(now sim.Time) (map[int][3]float64, bool) {
	span := now - m.windowStart
	if span <= 0 {
		return nil, false
	}
	secs := float64(span) / float64(sim.Second)
	out := make(map[int][3]float64)
	for slot, c := range m.counts {
		if c[0]+c[1]+c[2] == 0 {
			continue
		}
		out[m.op.rules.groups[slot].id] = [3]float64{
			float64(c[0]) / secs,
			float64(c[1]) / secs,
			float64(c[2]) / secs,
		}
	}
	m.ResetWindow(now)
	return out, true
}

// ResetWindow discards the current window — counts, totals, and the
// unmatched counter — and starts a fresh one at now. The controller calls
// this on every monitor when measurement begins, so the first snapshot's
// rates are not diluted by pipeline-fill idle time before traffic flowed.
// Lifetime counters are unaffected.
func (m *Monitor) ResetWindow(now sim.Time) {
	clear(m.counts)
	m.total = 0
	m.unmatched = 0
	m.windowStart = now
}
