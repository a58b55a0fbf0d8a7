package cluster

import (
	"testing"

	"netrs/internal/scenario"
	"netrs/internal/sim"
	"netrs/internal/workload"
)

// TestArrivalStreamBounded checks that a run holds at most one chunk of
// arrivals at a time: synthetic runs of at least eight chunks at Shards 1
// and 2, and a replayed trace whose 1501 arrivals at one instant, more
// than a chunk, straddle a chunk's end. After start and at every barrier (so right after
// each refill), no partition's stream holds more than the last chunk
// pushed, and that chunk exceeds arrivalChunk only by arrivals tied at
// its last instant. Every arrival is emitted and completed, and each
// partition runs its clients' arrivals exactly once, in index order, so a
// refill never overwrote an arrival still pending.
func TestArrivalStreamBounded(t *testing.T) {
	synthetic := smallConfig(SchemeNetRSILP)
	synthetic.Requests = 9 * arrivalChunk

	var entries []workload.TraceEntry
	at := sim.Time(0)
	for i := 0; i < 4000; i++ {
		if i < 1000 || i >= 2500 {
			at += 100 * sim.Microsecond
		}
		entries = append(entries, workload.TraceEntry{At: at, Client: i % 40, Key: uint64(i)})
	}
	tied := smallConfig(SchemeNetRSToR)
	tied.Scenario = scenario.Scenario{ReplayTracePath: writeTestTrace(t, entries)}

	for _, tc := range []struct {
		name     string
		cfg      Config
		shards   int
		chunks   int // at least this many refills
		longest  int // and a chunk at least this long
		arrivals int
	}{
		{"synthetic shards 1", synthetic, 1, 9, arrivalChunk, 0},
		{"synthetic shards 2", synthetic, 2, 9, arrivalChunk, 0},
		{"tied trace shards 1", tied, 1, 2, 1501, len(entries)},
		{"tied trace shards 2", tied, 2, 2, 1501, len(entries)},
	} {
		cfg := tc.cfg
		cfg.Shards = tc.shards
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}
		r := &runner{cfg: cfg}
		if err := r.setup(); err != nil {
			t.Fatal(err)
		}
		ran := make([][]int, len(r.parts)) // arrival indices, per partition
		arrive := r.arriveFn
		r.arriveFn = func(arg any) {
			req := arg.(*timedRequest).req
			p := r.clients[req.Client].part
			ran[p] = append(ran[p], req.Index)
			arrive(arg)
		}
		if err := r.start(); err != nil {
			t.Fatal(err)
		}
		chunks, longest, first := 0, 0, -1
		check := func() {
			n := len(r.chunk)
			if n > 0 && r.chunk[0].req.Index != first {
				chunks++
				first = r.chunk[0].req.Index
				longest = max(longest, n)
			}
			if n > arrivalChunk && r.chunk[arrivalChunk-1].at != r.chunk[n-1].at {
				t.Fatalf("%s: a chunk of %d arrivals runs past its %d-th arrival's instant", tc.name, n, arrivalChunk)
			}
			for _, st := range r.parts {
				if st.arrivals != nil && st.arrivals.Len() > n {
					t.Fatalf("%s: partition %d holds %d arrivals, more than the %d of the last chunk",
						tc.name, st.part, st.arrivals.Len(), n)
				}
			}
		}
		check()
		if err := r.set.Run(sim.FromSeconds(60), func(end sim.Time) bool {
			check()
			return r.barrier(end)
		}); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		res, err := r.result()
		if err != nil {
			t.Fatal(err)
		}
		if tc.arrivals > 0 && r.total != tc.arrivals {
			t.Fatalf("%s: %d arrivals, want the trace's %d", tc.name, r.total, tc.arrivals)
		}
		if res.Emitted != r.total || res.Completed != r.total || res.Events.Cursor != uint64(r.total) {
			t.Fatalf("%s: emitted %d, completed %d, stream events %d; want all %d",
				tc.name, res.Emitted, res.Completed, res.Events.Cursor, r.total)
		}
		seen := make([]bool, r.total)
		for p, idx := range ran {
			for i, x := range idx {
				if seen[x] || (i > 0 && x < idx[i-1]) {
					t.Fatalf("%s: partition %d ran arrival %d twice or out of order", tc.name, p, x)
				}
				seen[x] = true
			}
		}
		if chunks < tc.chunks || longest < tc.longest {
			t.Fatalf("%s: %d chunks, the longest %d; want at least %d and %d", tc.name, chunks, longest, tc.chunks, tc.longest)
		}
	}
}
