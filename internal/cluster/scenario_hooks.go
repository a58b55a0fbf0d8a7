package cluster

import (
	"netrs/internal/fabric"
	"netrs/internal/kv"
	"netrs/internal/scenario"
	"netrs/internal/sim"
	"netrs/internal/topo"
)

// setRackLinkDelay adds extra latency to (or with extra ≤ 0 clears) every
// fabric edge incident to the rack's ToR switch. Shared by the fault
// injector's transient link-delay events and the scenario library's
// persistent slow racks, at any partition count — ToR-incident edges reach
// hosts and aggregation switches only, all intra-pod, so the lookahead
// between pod partitions (the inter-switch link latency) is untouched.
func setRackLinkDelay(ft *topo.Topology, net *fabric.Network, rack int, extra sim.Time) error {
	tor, err := ft.ToROfRack(rack)
	if err != nil {
		return err
	}
	// Neighbors is sorted, so the edge set updates in deterministic order.
	for _, nb := range ft.Neighbors(tor) {
		if err := net.SetLinkExtra(tor, nb, extra); err != nil {
			return err
		}
	}
	return nil
}

// applyScenarioStatics installs the scenario hooks that live outside the
// workload source: heterogeneous server speed classes (SetSlowdown before
// the clock starts) and persistently slow racks (static link extras).
// Both consume no RNG and schedule no events, so calling this at setup
// is all the bit-equality across partition counts the scenario contract
// needs.
func applyScenarioStatics(scn scenario.Scenario, servers []*kv.Server, ft *topo.Topology, net *fabric.Network) error {
	if len(scn.Heterogeneous) > 0 {
		for i, srv := range servers {
			if err := srv.SetSlowdown(scn.ServerMultiplier(i, len(servers))); err != nil {
				return err
			}
		}
	}
	for _, sr := range scn.SlowRacks {
		if err := setRackLinkDelay(ft, net, sr.Rack, sim.FromMs(sr.ExtraMs)); err != nil {
			return err
		}
	}
	return nil
}
