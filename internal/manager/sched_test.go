package manager

import (
	"strings"
	"testing"
	"time"
)

func testConfig() Config {
	return Config{Campaigns: []CampaignSpec{
		{ID: "net", Driver: "rtl8029", Workers: 2, Execs: 1000, Seed: 7},
		{ID: "sym", Driver: "amd-pcnet", Mode: ModeSymbolic, Workers: 1},
	}}
}

// clock is a controllable scheduler clock.
type clock struct{ t time.Time }

func (c *clock) now() time.Time          { return c.t }
func (c *clock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newTestSched(t *testing.T, cfg Config, ttl time.Duration) (*Scheduler, *clock) {
	t.Helper()
	s, err := NewScheduler(cfg, ttl)
	if err != nil {
		t.Fatal(err)
	}
	ck := &clock{t: time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)}
	s.now = ck.now
	return s, ck
}

func TestSchedulerValidation(t *testing.T) {
	bad := []Config{
		{Campaigns: []CampaignSpec{{Driver: "rtl8029", Execs: 1}}},                                      // no id
		{Campaigns: []CampaignSpec{{ID: "a", Execs: 1}}},                                                // no driver
		{Campaigns: []CampaignSpec{{ID: "a", Driver: "x", Execs: 1}, {ID: "a", Driver: "y", Execs: 1}}}, // dup id
		{Campaigns: []CampaignSpec{{ID: "a", Driver: "x", Mode: "turbo", Execs: 1}}},                    // bad mode
		{Campaigns: []CampaignSpec{{ID: "a", Driver: "x", Duration: "soon"}}},                           // bad duration
		{Campaigns: []CampaignSpec{{ID: "a", Driver: "x"}}},                                             // fuzz, no budget
	}
	for i, cfg := range bad {
		if _, err := NewScheduler(cfg, 0); err == nil {
			t.Errorf("config %d accepted, want error", i)
		}
	}
	// Symbolic campaigns are budgeted by the engine, not the spec.
	if _, err := NewScheduler(Config{Campaigns: []CampaignSpec{{ID: "s", Driver: "x", Mode: ModeSymbolic}}}, 0); err != nil {
		t.Errorf("budget-less symbolic campaign rejected: %v", err)
	}
}

// TestSchedulerHandout: slots hand out one lease each with per-slot seeds;
// an exhausted slot table answers nil.
func TestSchedulerHandout(t *testing.T) {
	s, _ := newTestSched(t, testConfig(), time.Minute)
	w := s.Connect("w")
	var seeds []int64
	drivers := make(map[string]int)
	for i := 0; i < 3; i++ {
		l := s.Poll(w)
		if l == nil {
			t.Fatalf("poll %d: no lease, want 3 slots", i)
		}
		drivers[l.Driver]++
		if l.Mode == ModeFuzz {
			seeds = append(seeds, l.Seed)
		}
	}
	if s.Poll(w) != nil {
		t.Fatal("4th poll handed out a lease beyond the slot table")
	}
	if drivers["rtl8029"] != 2 || drivers["amd-pcnet"] != 1 {
		t.Fatalf("driver fan-out = %v", drivers)
	}
	if len(seeds) != 2 || seeds[0] == seeds[1] {
		t.Fatalf("per-slot seeds not distinct: %v", seeds)
	}
}

// TestSchedulerRenewDeltas: workers report cumulative counters; Renew
// converts them to deltas against the previous heartbeat.
func TestSchedulerRenewDeltas(t *testing.T) {
	s, _ := newTestSched(t, testConfig(), time.Minute)
	w := s.Connect("w")
	l := s.Poll(w)
	if e, i, live := s.Renew(w, l.LeaseID, 100, 1000); e != 100 || i != 1000 || !live {
		t.Fatalf("first renew = (%d, %d, %v)", e, i, live)
	}
	if e, i, live := s.Renew(w, l.LeaseID, 250, 2500); e != 150 || i != 1500 || !live {
		t.Fatalf("second renew = (%d, %d, %v), want deltas (150, 1500, true)", e, i, live)
	}
}

// TestSchedulerLeaseReassignment is the crash-recovery core: a worker that
// stops heartbeating loses its lease, the slot is re-issued to the next
// poller with a fresh lease ID, and the dead worker's late traffic cannot
// complete the slot (its evidence still merges — that is the server's job).
func TestSchedulerLeaseReassignment(t *testing.T) {
	cfg := Config{Campaigns: []CampaignSpec{{ID: "net", Driver: "rtl8029", Workers: 1, Execs: 1000}}}
	s, ck := newTestSched(t, cfg, 10*time.Second)
	dead := s.Connect("dead")
	l1 := s.Poll(dead)
	if l1 == nil {
		t.Fatal("no initial lease")
	}

	// Within the TTL the slot is taken.
	live := s.Connect("live")
	ck.advance(5 * time.Second)
	if s.Poll(live) != nil {
		t.Fatal("slot double-leased while the first lease was live")
	}

	// Past the TTL the slot is re-issued with a fresh lease identity.
	ck.advance(6 * time.Second)
	l2 := s.Poll(live)
	if l2 == nil {
		t.Fatal("expired slot not re-issued")
	}
	if l2.LeaseID == l1.LeaseID {
		t.Fatal("re-issued lease kept the stale lease ID")
	}
	if l2.Campaign != "net" || l2.Slot != 0 {
		t.Fatalf("re-issued lease = %+v, want the same slot", l2)
	}

	// The presumed-dead worker comes back: stale (counters pass through
	// whole, live=false tells it to stop), and its Final cannot complete.
	if e, _, liveLease := s.Renew(dead, l1.LeaseID, 500, 0); liveLease || e != 500 {
		t.Fatalf("stale renew = (%d, live=%v), want (500, false)", e, liveLease)
	}
	s.Complete(dead, l1.LeaseID)
	if s.Done() {
		t.Fatal("stale lease completed the slot")
	}

	// The live replacement finishes it.
	s.Complete(live, l2.LeaseID)
	if !s.Done() {
		t.Fatal("live lease could not complete the slot")
	}

	camps, _ := s.Status()
	if len(camps) != 1 || camps[0].Reissues != 1 || camps[0].Done != 1 {
		t.Fatalf("campaign status = %+v, want 1 reissue, 1 done", camps)
	}
}

// TestSchedulerHeartbeatKeepsLease: reports that carry no progress (a
// symbolic lease's heartbeats, or a fuzz worker between coverage finds)
// renew the lease, so a live worker never expires.
func TestSchedulerHeartbeatKeepsLease(t *testing.T) {
	cfg := Config{Campaigns: []CampaignSpec{{ID: "net", Driver: "rtl8029", Workers: 1, Execs: 1000}}}
	s, ck := newTestSched(t, cfg, 10*time.Second)
	w := s.Connect("w")
	l := s.Poll(w)
	for i := 0; i < 5; i++ {
		ck.advance(8 * time.Second)
		if _, _, live := s.Renew(w, l.LeaseID, 0, 0); !live {
			t.Fatalf("heartbeat %d lost a renewed lease", i)
		}
	}
	other := s.Connect("other")
	if s.Poll(other) != nil {
		t.Fatal("heartbeat-renewed slot was re-issued")
	}
}

// TestSchedulerDriverAffinity: a worker's next lease is a slot on the
// driver it just ran when one is free, whichever lease finished first, and
// the first free slot otherwise.
func TestSchedulerDriverAffinity(t *testing.T) {
	cfg := Config{Campaigns: []CampaignSpec{
		{ID: "a0", Driver: "rtl8029", Workers: 1, Execs: 1000},
		{ID: "b0", Driver: "intel-pro1000", Workers: 1, Execs: 1000},
		{ID: "a1", Driver: "rtl8029", Workers: 1, Execs: 1000},
		{ID: "b1", Driver: "intel-pro1000", Workers: 1, Execs: 1000},
		{ID: "c0", Driver: "amd-pcnet", Workers: 1, Execs: 1000},
	}}
	s, _ := newTestSched(t, cfg, time.Minute)
	wa, wb := s.Connect("wa"), s.Connect("wb")
	la, lb := s.Poll(wa), s.Poll(wb)
	if la.Campaign != "a0" || lb.Campaign != "b0" {
		t.Fatalf("first leases %s, %s; want a0, b0 in config order", la.Campaign, lb.Campaign)
	}
	// wb finishes first; a1 precedes b1 in config order, but wb stays on
	// its driver and a1 waits for wa.
	s.Complete(wb, lb.LeaseID)
	if l := s.Poll(wb); l.Campaign != "b1" {
		t.Fatalf("wb after intel-pro1000: got %s, want b1", l.Campaign)
	} else {
		s.Complete(wb, l.LeaseID)
	}
	s.Complete(wa, la.LeaseID)
	if l := s.Poll(wa); l.Campaign != "a1" {
		t.Fatalf("wa after rtl8029: got %s, want a1", l.Campaign)
	}
	// No intel-pro1000 slot is left: wb falls back to the first free slot.
	if l := s.Poll(wb); l == nil || l.Campaign != "c0" {
		t.Fatalf("wb fallback: got %+v, want c0", l)
	}
}

// TestSchedulerStop: a stopping scheduler hands out nothing and answers
// every heartbeat with wind-down.
func TestSchedulerStop(t *testing.T) {
	s, _ := newTestSched(t, testConfig(), time.Minute)
	w := s.Connect("w")
	l := s.Poll(w)
	s.Stop()
	if s.Poll(w) != nil {
		t.Fatal("stopping scheduler handed out a lease")
	}
	if _, _, live := s.Renew(w, l.LeaseID, 1, 1); live {
		t.Fatal("stopping scheduler kept a lease live")
	}
	// Final reports still complete their slots during drain.
	s.Complete(w, l.LeaseID)
	camps, _ := s.Status()
	for _, c := range camps {
		if c.ID == l.Campaign && c.Done != 1 {
			t.Fatalf("drain completion lost: %+v", c)
		}
	}
}

// TestSchedulerWorkerIDs: connect assigns unique, sanitized IDs.
func TestSchedulerWorkerIDs(t *testing.T) {
	s, _ := newTestSched(t, Config{}, time.Minute)
	a, b := s.Connect("host:1/2"), s.Connect("host:1/2")
	if a == b {
		t.Fatalf("worker IDs collided: %s", a)
	}
	if strings.ContainsAny(a, ":/") {
		t.Fatalf("worker ID not sanitized: %s", a)
	}
}
