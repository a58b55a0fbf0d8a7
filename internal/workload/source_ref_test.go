package workload

import (
	"testing"

	"netrs/internal/dist"
	"netrs/internal/sim"
)

// engineReference runs the source's tick loop as it ran on a simulation
// engine before Source became a pull iterator: every generator ticks on
// one engine, each tick emits at its instant and schedules its
// generator's next tick, and ticks that fall due after the last emission
// emit nothing. It draws keys, clients and coins from a fresh source's
// fields and rebuilds the Poisson processes, whose first gaps NewSource
// has already drawn; the fresh source's own engine never runs.
func engineReference(t *testing.T, cfg SourceConfig, seed uint64) ([]Request, []sim.Time) {
	t.Helper()
	s, err := NewSource(cfg, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(seed)
	for g := range s.procs {
		if s.procs[g], err = dist.NewPoisson(cfg.RatePerSec/float64(cfg.Generators), rng.Stream(uint64(100+g))); err != nil {
			t.Fatal(err)
		}
	}
	eng := sim.NewEngine()
	var reqs []Request
	var ats []sim.Time
	emitted := 0
	gap := func(proc *dist.Poisson) sim.Time {
		d := proc.NextInterarrival()
		if m := cfg.Modulation; m != nil {
			d = sim.Time(float64(d) / m.factor(float64(emitted)/float64(cfg.Total)))
			if d < 1 {
				d = 1
			}
		}
		return d
	}
	var tick sim.ArgHandler
	tick = func(arg any) {
		proc := arg.(*dist.Poisson)
		if emitted >= cfg.Total {
			return
		}
		table := s.clients
		if s.shifted != nil && emitted >= s.shiftIndex {
			table = s.shifted
		}
		req := Request{Index: emitted, Client: table.Draw(), Key: s.zipf.Draw()}
		if s.spikeRNG != nil && emitted >= s.spikeStart && emitted < s.spikeEnd &&
			s.spikeRNG.Float64() < cfg.Spike.Share {
			req.Key = cfg.Spike.Key
		}
		if s.writeRNG != nil && s.writeRNG.Float64() < cfg.WriteFraction {
			req.Write = true
		}
		emitted++
		reqs = append(reqs, req)
		ats = append(ats, eng.Now())
		if emitted < cfg.Total {
			eng.MustScheduleArg(gap(proc), tick, proc)
		}
	}
	for _, proc := range s.procs {
		eng.MustScheduleArg(gap(proc), tick, proc)
	}
	eng.Run()
	return reqs, ats
}

// TestSourceMatchesEngineReference checks that Next yields exactly the
// (instant, request) sequence of the engine-driven tick loop, at 1, 7 and
// 200 generators with modulation, a key spike, a demand shift and writes
// on. The last case runs 7 generators at a rate whose gaps modulation
// pushes below 1 ns, so the d < 1 → 1 clamp puts several generators'
// ticks on one instant and only the scheduling order separates them.
func TestSourceMatchesEngineReference(t *testing.T) {
	shaped := func(generators int, rate float64) SourceConfig {
		cfg := sourceConfig(6000)
		cfg.Generators = generators
		cfg.RatePerSec = rate
		cfg.DemandSkew = 0.8
		cfg.HotFraction = 0.2
		cfg.ShiftAt = 0.5
		cfg.ShiftFraction = 0.7
		cfg.WriteFraction = 0.1
		cfg.Modulation = &RateModulation{Cycles: 2, Amplitude: 0.5, Phase: 0.25}
		cfg.Spike = &KeySpike{At: 0.3, Duration: 0.2, Share: 0.4, Key: 3}
		return cfg
	}
	for _, tc := range []struct {
		name string
		cfg  SourceConfig
		ties bool
	}{
		{"1 generator", shaped(1, 100000), false},
		{"7 generators", shaped(7, 100000), false},
		{"200 generators", shaped(200, 100000), false},
		{"clamped ties", shaped(7, 7e9), true},
	} {
		want, wantAt := engineReference(t, tc.cfg, 21)
		got, gotAt := emitAll(t, tc.cfg, 21)
		if len(got) != tc.cfg.Total || len(want) != tc.cfg.Total {
			t.Fatalf("%s: %d requests, reference %d, want %d", tc.name, len(got), len(want), tc.cfg.Total)
		}
		ties, writes := 0, 0
		for i := range want {
			if got[i] != want[i] || gotAt[i] != wantAt[i] {
				t.Fatalf("%s: arrival %d is %+v at %d ns, reference %+v at %d ns",
					tc.name, i, got[i], int64(gotAt[i]), want[i], int64(wantAt[i]))
			}
			if i > 0 && gotAt[i] == gotAt[i-1] {
				ties++
			}
			if got[i].Write {
				writes++
			}
		}
		if writes == 0 || (tc.ties && ties < 100) {
			t.Fatalf("%s: %d writes and %d equal-instant pairs; the check is vacuous", tc.name, writes, ties)
		}
	}
}
