// Failover: exercise NetRS's exception handling (§III-C). Midway through
// the run the busiest RSNode fails; the controller flips its traffic
// groups to Degraded Replica Selection — requests fall back to the
// client-provided backup replica — and the system keeps serving without
// touching any end-host.
package main

import (
	"fmt"
	"os"

	"netrs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "failover:", err)
		os.Exit(1)
	}
}

func run() error {
	base := netrs.DefaultConfig()
	base.FatTreeK = 8
	base.Servers = 24
	base.Clients = 60
	base.Generators = 30
	base.Requests = 15000
	base.Keys = 1 << 20
	base.VNodes = 16
	base.Scheme = netrs.SchemeNetRSToR

	fmt.Println("NetRS failover demo — RSNode failure and Degraded Replica Selection")
	fmt.Println()

	// Baseline: no failure.
	clean, err := netrs.Run(base)
	if err != nil {
		return err
	}
	fmt.Printf("healthy run:   %s\n", clean.Summary.String())
	fmt.Printf("               %d RSNodes, %d requests via DRS\n\n", clean.RSNodes, clean.DegradedResponses)

	// Failure injection: the busiest RSNode dies halfway through.
	faulty := base
	faulty.Scenario.Faults = []netrs.FaultEvent{
		{Kind: netrs.FaultRSNodeCrash, AtFraction: 0.5, RSNode: netrs.FaultTargetBusiest},
	}
	broken, err := netrs.Run(faulty)
	if err != nil {
		return err
	}
	fmt.Printf("with failure:  %s\n", broken.Summary.String())
	fmt.Printf("               RSNode %d failed at 50%% of the run\n", broken.FailedRSNode)
	fmt.Printf("               %d traffic groups degraded, %d requests served via DRS\n",
		broken.DegradedGroups, broken.DegradedResponses)
	fmt.Printf("               every request still completed: %d of %d\n\n",
		broken.Completed, broken.Emitted)

	delta := 100 * (broken.Summary.MeanMs - clean.Summary.MeanMs) / clean.Summary.MeanMs
	fmt.Printf("mean latency cost of losing the RSNode: %+.1f%%\n", delta)
	fmt.Println("(degraded clients fall back to their own replica choice — availability")
	fmt.Println(" is preserved at the price of client-side selection quality, §III-C)")
	return nil
}
