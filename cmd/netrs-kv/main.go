// Command netrs-kv runs the real-network (UDP) NetRS components: replica
// servers, the software NetRS operator, and a client — or an all-in-one
// demo wiring the three together on the loopback interface.
//
// Usage:
//
//	netrs-kv demo                       # 3 servers + operator + client
//	netrs-kv server -addr 127.0.0.1:7001 -delay 5ms
//	netrs-kv operator -addr 127.0.0.1:7000 -servers 127.0.0.1:7001,127.0.0.1:7002
//	netrs-kv get -operator 127.0.0.1:7000 -key alpha
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"time"

	"netrs/internal/kvnet"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "netrs-kv:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: netrs-kv <demo|server|operator|get> [flags]")
	}
	switch args[0] {
	case "demo":
		return demo(args[1:])
	case "server":
		return serverCmd(args[1:])
	case "operator":
		return operatorCmd(args[1:])
	case "get":
		return getCmd(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func demo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ContinueOnError)
	gets := fs.Int("gets", 30, "number of reads to issue")
	slow := fs.Duration("slow", 20*time.Millisecond, "artificial delay of the slow replica")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Three replicas of the same data; replica 0 is slow.
	var servers []*kvnet.Server
	for i := 0; i < 3; i++ {
		delay := time.Duration(0)
		if i == 0 {
			delay = *slow
		}
		store := kvnet.NewStore()
		for k := 0; k < 16; k++ {
			store.Set(fmt.Sprintf("key%d", k), []byte(fmt.Sprintf("value-%d", k)))
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
		role := "fast"
		if delay > 0 {
			role = fmt.Sprintf("slow (+%v)", delay)
		}
		fmt.Printf("server %d on %v (%s)\n", i, srv.Addr(), role)
	}

	op, err := kvnet.NewOperator("127.0.0.1:0", kvnet.OperatorConfig{ID: 1})
	if err != nil {
		return err
	}
	defer op.Close()
	ids := make([]int, len(servers))
	for i, srv := range servers {
		ids[i] = i
		if err := op.RegisterServer(i, srv.Addr()); err != nil {
			return err
		}
	}
	if err := op.RegisterGroup(1, ids); err != nil {
		return err
	}
	fmt.Printf("operator on %v (RSNode ID 1)\n\n", op.Addr())

	cli, err := kvnet.NewClient(op.Addr(), func(string) uint32 { return 1 }, 2*time.Second)
	if err != nil {
		return err
	}
	defer cli.Close()

	var total time.Duration
	for i := 0; i < *gets; i++ {
		key := fmt.Sprintf("key%d", i%16)
		res, err := cli.Get(key)
		if err != nil {
			return fmt.Errorf("get %q: %w", key, err)
		}
		total += res.RTT
		fmt.Printf("get %-6s → %-10q rtt=%-10v server-rack=%d q=%d\n",
			key, res.Value, res.RTT.Round(time.Microsecond), res.Source.Rack, res.Status.QueueSize)
	}

	fmt.Printf("\nmean rtt: %v over %d gets\n", (total / time.Duration(*gets)).Round(time.Microsecond), *gets)
	for i, srv := range servers {
		fmt.Printf("server %d served %d requests\n", i, srv.Served())
	}
	sel, resp, drop := op.Stats()
	fmt.Printf("operator: %d selections, %d responses, %d drops\n", sel, resp, drop)
	fmt.Println("\nnote: the in-network selector learned to avoid the slow replica.")
	return nil
}

func serverCmd(args []string) error {
	fs := flag.NewFlagSet("server", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7001", "UDP listen address")
	delay := fs.Duration("delay", 0, "artificial per-request service delay")
	workers := fs.Int("workers", 4, "service parallelism (Np)")
	pod := fs.Int("pod", 0, "pod id for the source marker")
	rack := fs.Int("rack", 0, "rack id for the source marker")
	keys := fs.Int("keys", 1024, "pre-populated keys key0..keyN-1")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store := kvnet.NewStore()
	for k := 0; k < *keys; k++ {
		store.Set(fmt.Sprintf("key%d", k), []byte(fmt.Sprintf("value-%d", k)))
	}
	srv, err := kvnet.NewServer(*addr, kvnet.ServerConfig{
		Workers:         *workers,
		ProcessingDelay: *delay,
		Pod:             uint16(*pod),
		Rack:            uint16(*rack),
	}, store)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Printf("kv server on %v (%d keys, delay %v); ctrl-c to stop\n", srv.Addr(), *keys, *delay)
	waitForInterrupt()
	return nil
}

func operatorCmd(args []string) error {
	fs := flag.NewFlagSet("operator", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7000", "UDP listen address")
	serverList := fs.String("servers", "", "comma-separated replica server addresses")
	id := fs.Int("id", 1, "RSNode ID")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *serverList == "" {
		return fmt.Errorf("operator: -servers required")
	}
	op, err := kvnet.NewOperator(*addr, kvnet.OperatorConfig{ID: uint16(*id)})
	if err != nil {
		return err
	}
	defer op.Close()
	var ids []int
	for i, s := range strings.Split(*serverList, ",") {
		udp, err := net.ResolveUDPAddr("udp", strings.TrimSpace(s))
		if err != nil {
			return fmt.Errorf("server %q: %w", s, err)
		}
		if err := op.RegisterServer(i, udp); err != nil {
			return err
		}
		ids = append(ids, i)
	}
	if err := op.RegisterGroup(1, ids); err != nil {
		return err
	}
	fmt.Printf("NetRS operator on %v selecting among %d replicas; ctrl-c to stop\n", op.Addr(), len(ids))
	waitForInterrupt()
	sel, resp, drop := op.Stats()
	fmt.Printf("operator: %d selections, %d responses, %d drops\n", sel, resp, drop)
	return nil
}

func getCmd(args []string) error {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	operator := fs.String("operator", "127.0.0.1:7000", "operator address")
	key := fs.String("key", "key0", "key to read")
	count := fs.Int("n", 1, "number of reads")
	if err := fs.Parse(args); err != nil {
		return err
	}
	udp, err := net.ResolveUDPAddr("udp", *operator)
	if err != nil {
		return err
	}
	cli, err := kvnet.NewClient(udp, func(string) uint32 { return 1 }, 2*time.Second)
	if err != nil {
		return err
	}
	defer cli.Close()
	for i := 0; i < *count; i++ {
		res, err := cli.Get(*key)
		if err != nil {
			return err
		}
		fmt.Printf("%s = %q (rtt %v, rack %d, queue %d)\n",
			*key, res.Value, res.RTT.Round(time.Microsecond), res.Source.Rack, res.Status.QueueSize)
	}
	return nil
}

func waitForInterrupt() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	<-ch
}
