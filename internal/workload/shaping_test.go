package workload

import (
	"errors"
	"testing"

	"netrs/internal/sim"
)

// emitAll pulls a source to completion and returns the emitted requests
// plus the arrival instant of each.
func emitAll(t *testing.T, cfg SourceConfig, seed uint64) ([]Request, []sim.Time) {
	t.Helper()
	src, err := NewSource(cfg, sim.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	var ats []sim.Time
	for at, req, ok := src.Next(); ok; at, req, ok = src.Next() {
		reqs = append(reqs, req)
		ats = append(ats, at)
	}
	return reqs, ats
}

// TestModulationPreservesDrawSequences is the bit-identical contract of
// the diurnal hook: modulation rescales each drawn interarrival but draws
// nothing extra, so the client and key sequences of a modulated run equal
// the unmodulated run's exactly.
func TestModulationPreservesDrawSequences(t *testing.T) {
	base := sourceConfig(4000)
	mod := base
	mod.Modulation = &RateModulation{Cycles: 3, Amplitude: 0.4}

	plain, _ := emitAll(t, base, 7)
	shaped, _ := emitAll(t, mod, 7)
	if len(plain) != len(shaped) {
		t.Fatalf("emission counts differ: %d vs %d", len(plain), len(shaped))
	}
	for i := range plain {
		if plain[i] != shaped[i] {
			t.Fatalf("request %d differs under modulation: %+v vs %+v", i, plain[i], shaped[i])
		}
	}
}

// TestModulationShapesArrivalTimes checks the triangle wave does its job:
// with the trough at the start and the peak mid-run, the middle third of a
// modulated run completes in less simulated time than the first third.
func TestModulationShapesArrivalTimes(t *testing.T) {
	cfg := sourceConfig(9000)
	cfg.Modulation = &RateModulation{Cycles: 1, Amplitude: 0.6}
	_, at := emitAll(t, cfg, 11)
	third := len(at) / 3
	firstSpan := at[third-1] - at[0]
	midSpan := at[2*third-1] - at[third]
	if midSpan >= firstSpan {
		t.Fatalf("peak third (%v) not faster than trough third (%v)", midSpan, firstSpan)
	}
}

// TestSpikeRedirectsOnlyInsideWindow checks the flash-crowd hook: outside
// the window the emitted stream is bit-identical to a spike-free run, and
// inside it roughly Share of the requests hit the hot key.
func TestSpikeRedirectsOnlyInsideWindow(t *testing.T) {
	base := sourceConfig(6000)
	spiked := base
	spiked.Spike = &KeySpike{At: 0.4, Duration: 0.2, Share: 0.5, Key: 1}

	plain, _ := emitAll(t, base, 9)
	crowd, _ := emitAll(t, spiked, 9)
	if len(plain) != len(crowd) {
		t.Fatalf("emission counts differ: %d vs %d", len(plain), len(crowd))
	}
	start, end := 2400, 3600 // 0.4·6000, (0.4+0.2)·6000
	hot := 0
	for i := range crowd {
		inWindow := i >= start && i < end
		if !inWindow && plain[i] != crowd[i] {
			t.Fatalf("request %d outside the window differs: %+v vs %+v", i, plain[i], crowd[i])
		}
		if inWindow {
			if crowd[i].Client != plain[i].Client || crowd[i].Index != plain[i].Index {
				t.Fatalf("request %d: spike must only touch the key: %+v vs %+v", i, plain[i], crowd[i])
			}
			if crowd[i].Key == 1 {
				hot++
			} else if crowd[i].Key != plain[i].Key {
				t.Fatalf("request %d: unredirected key differs: %d vs %d", i, crowd[i].Key, plain[i].Key)
			}
		}
	}
	window := end - start
	if hot < window/3 || hot > 2*window/3 {
		t.Fatalf("hot-key share %d/%d far from 0.5", hot, window)
	}
}

func TestShapingDeterministicPerSeed(t *testing.T) {
	cfg := sourceConfig(3000)
	cfg.Modulation = &RateModulation{Cycles: 2, Amplitude: 0.3, Phase: 0.5}
	cfg.Spike = &KeySpike{At: 0.2, Duration: 0.3, Share: 0.8, Key: 42}
	a, atA := emitAll(t, cfg, 13)
	b, atB := emitAll(t, cfg, 13)
	for i := range a {
		if a[i] != b[i] || atA[i] != atB[i] {
			t.Fatalf("request %d not reproducible", i)
		}
	}
}

func TestShapingValidation(t *testing.T) {
	cases := []SourceConfig{}
	bad := func(mut func(*SourceConfig)) {
		c := sourceConfig(100)
		mut(&c)
		cases = append(cases, c)
	}
	bad(func(c *SourceConfig) { c.Modulation = &RateModulation{Cycles: 0, Amplitude: 0.5} })
	bad(func(c *SourceConfig) { c.Modulation = &RateModulation{Cycles: 1, Amplitude: 1} })
	bad(func(c *SourceConfig) { c.Modulation = &RateModulation{Cycles: 1, Amplitude: 0.5, Phase: -0.1} })
	bad(func(c *SourceConfig) { c.Spike = &KeySpike{At: 1, Duration: 0.1, Share: 0.5} })
	bad(func(c *SourceConfig) { c.Spike = &KeySpike{At: 0.5, Duration: 0.6, Share: 0.5} })
	bad(func(c *SourceConfig) { c.Spike = &KeySpike{At: 0.1, Duration: 0.1, Share: 0} })
	bad(func(c *SourceConfig) { c.Spike = &KeySpike{At: 0.1, Duration: 0.1, Share: 0.5, Key: 1 << 20} })
	for i, c := range cases {
		if _, err := NewSource(c, sim.NewRNG(1)); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("case %d: want ErrInvalidParam, got %v", i, err)
		}
	}
}
