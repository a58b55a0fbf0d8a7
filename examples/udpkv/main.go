// UDP KV: the NetRS protocol on a real network stack. Three UDP replica
// servers (one artificially slow), a software NetRS operator performing
// in-network replica selection, and a client that reads through the
// operator using the exact packet format of the paper's Fig. 2 — all on
// the loopback interface.
package main

import (
	"fmt"
	"os"
	"time"

	"netrs/internal/kvnet"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "udpkv:", err)
		os.Exit(1)
	}
}

func run() error {
	// --- Replica servers -------------------------------------------------
	// The same 8 keys on all three; replica 0 suffers a 15 ms hiccup per
	// request (a "performance-fluctuating" server).
	var servers []*kvnet.Server
	for i := 0; i < 3; i++ {
		store := kvnet.NewStore()
		for k := 0; k < 8; k++ {
			store.Set(fmt.Sprintf("user:%d", k), []byte(fmt.Sprintf("profile-%d", k)))
		}
		delay := time.Duration(0)
		if i == 0 {
			delay = 15 * time.Millisecond
		}
		srv, err := kvnet.NewServer("127.0.0.1:0", kvnet.ServerConfig{
			Workers:         2,
			ProcessingDelay: delay,
			Pod:             uint16(i / 2),
			Rack:            uint16(i),
		}, store)
		if err != nil {
			return err
		}
		defer srv.Close()
		servers = append(servers, srv)
	}
	fmt.Printf("replicas: %v (slow), %v, %v\n", servers[0].Addr(), servers[1].Addr(), servers[2].Addr())

	// --- The in-network operator ----------------------------------------
	op, err := kvnet.NewOperator("127.0.0.1:0", kvnet.OperatorConfig{ID: 1})
	if err != nil {
		return err
	}
	defer op.Close()
	for i, srv := range servers {
		if err := op.RegisterServer(i, srv.Addr()); err != nil {
			return err
		}
	}
	if err := op.RegisterGroup(1, []int{0, 1, 2}); err != nil { // every key's RGID is 1 here
		return err
	}
	fmt.Printf("operator: %v (RSNode 1)\n\n", op.Addr())

	// --- The client -------------------------------------------------------
	// It names only the key's replica-group ID; the network picks the
	// replica.
	cli, err := kvnet.NewClient(op.Addr(), func(string) uint32 { return 1 }, 2*time.Second)
	if err != nil {
		return err
	}
	defer cli.Close()

	var totalRTT time.Duration
	const reads = 24
	for i := 0; i < reads; i++ {
		key := fmt.Sprintf("user:%d", i%8)
		res, err := cli.Get(key)
		if err != nil {
			return fmt.Errorf("get %q: %w", key, err)
		}
		totalRTT += res.RTT
		fmt.Printf("%-8s = %-12q  rtt=%-12v served-by-rack=%d\n",
			key, res.Value, res.RTT.Round(time.Microsecond), res.Source.Rack)
	}

	fmt.Printf("\nmean rtt %v over %d reads\n", (totalRTT / reads).Round(time.Microsecond), reads)
	for i, srv := range servers {
		note := ""
		if i == 0 {
			note = " (slow replica — the selector learned to avoid it)"
		}
		fmt.Printf("replica %d served %d%s\n", i, srv.Served(), note)
	}
	return nil
}
