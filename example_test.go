package netrs_test

import (
	"fmt"

	"netrs"
)

// Example runs the paper's default experiment (scaled down) under
// client-side selection and in-network selection and compares the means.
func Example() {
	cfg := netrs.DefaultConfig()
	cfg.FatTreeK = 8 // 128 hosts instead of 1024
	cfg.Servers = 20
	cfg.Clients = 40
	cfg.Generators = 20
	cfg.Requests = 4000
	cfg.Keys = 1 << 20
	cfg.VNodes = 16

	cfg.Scheme = netrs.SchemeCliRS
	cli, err := netrs.Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cfg.Scheme = netrs.SchemeNetRSILP
	ilp, err := netrs.Run(cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("in-network selection is faster:", ilp.Summary.MeanMs < cli.Summary.MeanMs)
	// Output:
	// in-network selection is faster: true
}

// ExampleRunRepeated mirrors the paper's three repetitions with different
// random deployments.
func ExampleRunRepeated() {
	cfg := netrs.DefaultConfig()
	cfg.FatTreeK = 8
	cfg.Servers = 20
	cfg.Clients = 40
	cfg.Generators = 20
	cfg.Requests = 1000
	cfg.Keys = 1 << 20
	cfg.VNodes = 16
	cfg.Scheme = netrs.SchemeNetRSToR

	runs, merged, err := netrs.RunRepeated(cfg, netrs.DefaultSeeds(), netrs.RunOptions{})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println("repetitions:", len(runs))
	fmt.Println("total measured requests:", merged.Count)
	// Output:
	// repetitions: 3
	// total measured requests: 3000
}

// ExampleParseScheme resolves scheme names as printed in the paper.
func ExampleParseScheme() {
	s, err := netrs.ParseScheme("NetRS-ILP")
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(s == netrs.SchemeNetRSILP)
	// Output:
	// true
}

// ExamplePaperFigures lists the evaluation figures this library can
// regenerate.
func ExamplePaperFigures() {
	for _, fig := range netrs.PaperFigures() {
		fmt.Printf("%s: %s (%d points)\n", fig.ID, fig.XAxis, len(fig.Points))
	}
	// Output:
	// fig4: Number of Clients (4 points)
	// fig5: Demand Skew (4 points)
	// fig6: Utilization (4 points)
	// fig7: Service Time (ms) (5 points)
}
