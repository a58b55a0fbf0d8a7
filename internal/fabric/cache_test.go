package fabric

import (
	"errors"
	"testing"

	"netrs/internal/cache"
	"netrs/internal/sim"
	"netrs/internal/topo"
	"netrs/internal/wire"
)

// newCacheHarness is the standard harness with the ToR plan installed and
// a cache in the given mode at the client's ToR. AdmitAfter 1 admits a key
// on the first response after a miss.
func newCacheHarness(t *testing.T, mode CacheMode) (*harness, *cache.Cache) {
	t.Helper()
	h := newHarness(t, nil)
	if err := h.ctrl.InstallToRPlan(); err != nil {
		t.Fatal(err)
	}
	c, err := cache.New(cache.Config{Budget: 1 << 16, AdmitAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.torOperator().EnableCache(c, mode); err != nil {
		t.Fatal(err)
	}
	return h, c
}

func TestEnableCacheValidation(t *testing.T) {
	h := newHarness(t, nil)
	c, err := cache.New(cache.Config{Budget: 1024})
	if err != nil {
		t.Fatal(err)
	}
	tor := h.torOperator()
	if err := tor.EnableCache(nil, CacheModeSelector); !errors.Is(err, ErrInvalidParam) {
		t.Error("nil cache accepted")
	}
	if err := tor.EnableCache(c, CacheModeNone); !errors.Is(err, ErrInvalidParam) {
		t.Error("mode none accepted")
	}
	for _, op := range h.net.OperatorsSorted() {
		if op.Tier() == topo.TierToR {
			continue
		}
		if err := op.EnableCache(c, CacheModeSelector); !errors.Is(err, ErrInvalidParam) {
			t.Errorf("cache on tier-%d operator %d accepted", op.Tier(), op.ID())
		}
	}
	if tor.Cache() != nil {
		t.Fatal("cache attached by a rejected call")
	}
	if err := tor.EnableCache(c, CacheModeSelector); err != nil {
		t.Fatal(err)
	}
	if tor.Cache() != c {
		t.Fatal("Cache() does not return the attached cache")
	}
}

// TestCacheSelectorModeHitsAndInvalidation walks NetRS+Cache at one ToR
// RSNode: a miss runs the selector and its response admits the key, the
// next read turns around at the switch, a write bypasses the cache, and an
// invalidation from a server host evicts the key again.
func TestCacheSelectorModeHitsAndInvalidation(t *testing.T) {
	h, c := newCacheHarness(t, CacheModeSelector)
	spy := h.spies[h.torOperator().ID()]

	h.sendKeyed(1, 7, false)
	h.eng.Run()
	if resp := h.got[1]; resp == nil || resp.Server != 0 {
		t.Fatalf("miss response %+v, want served by server 0", resp)
	}
	if c.Len() != 1 || spy.picks != 1 {
		t.Fatalf("after miss: %d resident, %d picks; want 1, 1", c.Len(), spy.picks)
	}

	sent := h.eng.Now()
	h.sendKeyed(2, 7, false)
	h.eng.Run()
	resp := h.got[2]
	if resp == nil || resp.Server != -1 || resp.Magic != wire.MagicResponse {
		t.Fatalf("hit response %+v, want switch-served (Server -1)", resp)
	}
	// client→ToR and back: two 30 µs links, no accelerator.
	if got := h.gotTime[2] - sent; got != sim.FromUs(60) {
		t.Fatalf("hit latency %v, want 60µs", got)
	}
	if spy.picks != 1 {
		t.Fatalf("hit ran the selector: %d picks", spy.picks)
	}

	h.sendKeyed(3, 7, true)
	h.eng.Run()
	if resp := h.got[3]; resp == nil || resp.Server != 0 || spy.picks != 2 {
		t.Fatalf("write %+v with %d picks, want a replica-served write", resp, spy.picks)
	}

	_, delivered, _ := h.net.Stats()
	tor := h.torOperator().Switch()
	if err := h.net.SendInvalidations(h.servers[1], 100, 7, []topo.NodeID{tor}); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if c.Len() != 0 || c.Stats().Invalidations != 1 {
		t.Fatalf("after invalidation: %d resident, stats %+v", c.Len(), c.Stats())
	}
	if _, d, _ := h.net.Stats(); d != delivered+1 {
		t.Fatalf("invalidation not consumed at the ToR: delivered %d → %d", delivered, d)
	}

	h.sendKeyed(4, 7, false)
	h.eng.Run()
	if resp := h.got[4]; resp == nil || resp.Server != 0 {
		t.Fatalf("post-invalidation read %+v, want a miss served by server 0", resp)
	}
}

// TestCacheStandaloneModeUsesPrimary walks NetCache at the client's ToR:
// misses go to the replica group's primary with no selection and no
// RSNode, hits turn around at the switch, and a group the database cannot
// resolve falls back to the client's backup under DRS.
func TestCacheStandaloneModeUsesPrimary(t *testing.T) {
	h, c := newCacheHarness(t, CacheModeStandalone)
	spy := h.spies[h.torOperator().ID()]

	h.sendKeyed(1, 9, false)
	h.eng.Run()
	resp := h.got[1]
	if resp == nil || resp.Server != 0 || resp.RID != 0 {
		t.Fatalf("miss response %+v, want primary server 0 with no RSNode", resp)
	}
	if c.Len() != 1 {
		t.Fatalf("miss response admitted %d keys, want 1", c.Len())
	}

	h.sendKeyed(2, 9, false)
	h.eng.Run()
	if resp := h.got[2]; resp == nil || resp.Server != -1 {
		t.Fatalf("hit response %+v, want switch-served", resp)
	}
	if spy.picks != 0 {
		t.Fatalf("NetCache ran the selector %d times", spy.picks)
	}

	p := &Packet{ReqID: 3, RGID: 2, Key: 11, Dst: topo.InvalidNode, Backup: h.servers[2], BackupServer: 2}
	if err := h.net.SendNetRSRequest(p, h.client); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if resp := h.got[3]; resp == nil || resp.Server != 2 || resp.RID != wire.DegradedRID {
		t.Fatalf("unknown-group response %+v, want DRS to backup server 2", resp)
	}
}

// TestSendDirectAndDrop covers the CliRS flow, which switches only forward,
// and the drop of a packet addressed to a host with no handler.
func TestSendDirectAndDrop(t *testing.T) {
	h := newHarness(t, nil)
	p := &Packet{ReqID: 1, Dst: h.servers[1]}
	if err := h.net.SendDirect(p, h.client); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if resp := h.got[1]; resp == nil || resp.Server != 1 {
		t.Fatalf("direct response %+v, want served by server 1", resp)
	}

	orphan := h.ft.Hosts()[3] // no handler attached
	if err := h.net.SendDirect(&Packet{ReqID: 2, Dst: orphan}, h.client); err != nil {
		t.Fatal(err)
	}
	h.eng.Run()
	if _, _, dropped := h.net.Stats(); dropped != 1 {
		t.Fatalf("dropped = %d, want the orphan packet", dropped)
	}
}
