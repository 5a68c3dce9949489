package manager

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// DefaultLeaseTTL is how long a lease survives without a report. Workers
// report every SyncInterval — well under the TTL — so only a dead or
// partitioned worker loses its lease.
const DefaultLeaseTTL = 30 * time.Second

// Default worker cadences handed out at connect.
const (
	DefaultPollInterval = 2 * time.Second
	DefaultSyncInterval = 1 * time.Second
)

// slot is one unit of a campaign's worker fan-out.
type slot struct {
	campaign *CampaignSpec
	index    int
	done     bool
	// lease is the currently active hand-out (nil: available). A slot whose
	// lease expires goes back to available and the generation bumps, so the
	// re-issued lease has a fresh ID.
	lease      *lease
	generation int
}

// lease is one live hand-out of a slot to a worker.
type lease struct {
	id      string
	slot    *slot
	worker  string
	expires time.Time
	// progress counters from the last report, so a re-report can be merged
	// as a delta (workers send cumulative values).
	lastExecs  uint64
	lastInstrs uint64
}

// workerInfo tracks one connected worker for /status.
type workerInfo struct {
	id       string
	lastSeen time.Time
	lease    string // active lease ID, "" when idle
	driver   string // driver of the worker's last lease, "" before its first
}

// Scheduler owns campaign slots and leases. It is the work-distribution
// half of the manager; the State is the results half.
type Scheduler struct {
	mu       sync.Mutex
	slots    []*slot
	leases   map[string]*lease
	workers  map[string]*workerInfo
	ttl      time.Duration
	seq      int
	now      func() time.Time // test hook
	stopping bool
}

// NewScheduler builds the slot table from the campaign config. ttl <= 0
// uses DefaultLeaseTTL.
func NewScheduler(cfg Config, ttl time.Duration) (*Scheduler, error) {
	if ttl <= 0 {
		ttl = DefaultLeaseTTL
	}
	s := &Scheduler{
		leases:  make(map[string]*lease),
		workers: make(map[string]*workerInfo),
		ttl:     ttl,
		now:     time.Now,
	}
	seen := make(map[string]bool)
	for i := range cfg.Campaigns {
		spec := &cfg.Campaigns[i]
		if spec.ID == "" {
			return nil, fmt.Errorf("manager: campaign %d has no id", i)
		}
		if seen[spec.ID] {
			return nil, fmt.Errorf("manager: duplicate campaign id %q", spec.ID)
		}
		seen[spec.ID] = true
		if spec.Driver == "" {
			return nil, fmt.Errorf("manager: campaign %q has no driver", spec.ID)
		}
		if spec.Mode == "" {
			spec.Mode = ModeFuzz
		}
		if spec.Mode != ModeFuzz && spec.Mode != ModeSymbolic {
			return nil, fmt.Errorf("manager: campaign %q: unknown mode %q", spec.ID, spec.Mode)
		}
		if _, err := spec.duration(); err != nil {
			return nil, fmt.Errorf("manager: campaign %q: %w", spec.ID, err)
		}
		if spec.Mode == ModeFuzz && spec.Execs == 0 && spec.Duration == "" {
			return nil, fmt.Errorf("manager: campaign %q needs an execs or duration budget", spec.ID)
		}
		workers := spec.Workers
		if workers < 1 {
			workers = 1
		}
		for w := 0; w < workers; w++ {
			s.slots = append(s.slots, &slot{campaign: spec, index: w})
		}
	}
	return s, nil
}

// Connect registers a worker and returns its unique ID.
func (s *Scheduler) Connect(name string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	id := fmt.Sprintf("%s-%d", sanitizeName(name), s.seq)
	s.workers[id] = &workerInfo{id: id, lastSeen: s.now()}
	return id
}

// Poll hands out at most one lease to the worker: the first campaign slot
// that is not done and has no live lease (never issued, completed
// abnormally, or expired — the reassignment path for crashed workers).
// A slot on the driver of the worker's previous lease goes first. The
// worker then keeps fuzzing a driver whose image it has built, and the
// follow-up slot starts from the corpus the worker's own final report just
// flushed. Without that preference, which seeds a slot starts from would
// depend on which of two running leases happened to finish first.
func (s *Scheduler) Poll(workerID string) *CampaignLease {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	s.touchLocked(workerID, now)
	if s.stopping {
		return nil
	}
	s.expireLocked(now)
	w := s.workers[workerID]
	sl := s.pickLocked(w)
	if sl == nil {
		return nil
	}
	s.seq++
	l := &lease{
		id:      fmt.Sprintf("lease-%s-%d-g%d-%d", sl.campaign.ID, sl.index, sl.generation, s.seq),
		slot:    sl,
		worker:  workerID,
		expires: now.Add(s.ttl),
	}
	sl.lease = l
	s.leases[l.id] = l
	if w != nil {
		w.lease = l.id
		w.driver = sl.campaign.Driver
	}
	spec := sl.campaign
	dur, _ := spec.duration()
	return &CampaignLease{
		LeaseID:    l.id,
		Campaign:   spec.ID,
		Slot:       sl.index,
		Driver:     spec.Driver,
		Fixed:      spec.Fixed,
		Mode:       spec.Mode,
		Execs:      spec.Execs,
		DurationMS: dur.Milliseconds(),
		Seed:       spec.Seed + int64(sl.index),
		Persist:    spec.Persist,
		Dict:       spec.Dict,
	}
}

// pickLocked returns the slot Poll hands to w: the first available slot on
// w's previous driver, else the first available slot, else nil.
func (s *Scheduler) pickLocked(w *workerInfo) *slot {
	var first *slot
	for _, sl := range s.slots {
		if sl.done || sl.lease != nil {
			continue
		}
		if w != nil && w.driver != "" && sl.campaign.Driver == w.driver {
			return sl
		}
		if first == nil {
			first = sl
		}
	}
	return first
}

// Renew extends a lease on a report. It returns false when the lease is no
// longer live — expired and re-issued, or the manager is stopping — which
// tells the worker to wind down. The cumulative progress counters are
// converted to deltas against the last report.
func (s *Scheduler) Renew(workerID, leaseID string, execs, instrs uint64) (execsDelta, instrsDelta uint64, live bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	s.touchLocked(workerID, now)
	s.expireLocked(now)
	l, ok := s.leases[leaseID]
	if !ok || l.worker != workerID {
		// Stale lease: the worker was presumed dead and its slot re-issued.
		// Results are still merged by the caller, but the worker should stop.
		return execs, instrs, false
	}
	l.expires = now.Add(s.ttl)
	if execs >= l.lastExecs {
		execsDelta = execs - l.lastExecs
	}
	if instrs >= l.lastInstrs {
		instrsDelta = instrs - l.lastInstrs
	}
	l.lastExecs, l.lastInstrs = execs, instrs
	return execsDelta, instrsDelta, !s.stopping
}

// Complete marks a lease's slot done (final report). A stale lease cannot
// complete a slot — its re-issued successor owns it now.
func (s *Scheduler) Complete(workerID, leaseID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.touchLocked(workerID, s.now())
	l, ok := s.leases[leaseID]
	if !ok || l.worker != workerID {
		return
	}
	l.slot.done = true
	l.slot.lease = nil
	delete(s.leases, leaseID)
	if w := s.workers[workerID]; w != nil && w.lease == leaseID {
		w.lease = ""
	}
}

// expireLocked reaps leases whose workers stopped heartbeating: the slot
// returns to the available pool with a bumped generation, so the campaign
// is re-issued, not lost.
func (s *Scheduler) expireLocked(now time.Time) {
	for id, l := range s.leases {
		if now.After(l.expires) {
			l.slot.lease = nil
			l.slot.generation++
			delete(s.leases, id)
			if w := s.workers[l.worker]; w != nil && w.lease == id {
				w.lease = ""
			}
		}
	}
}

func (s *Scheduler) touchLocked(workerID string, now time.Time) {
	if w := s.workers[workerID]; w != nil {
		w.lastSeen = now
	}
}

// Stop flips the scheduler into shutdown: no new leases, and every
// heartbeat answers Stop so workers wind down and send final reports.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopping = true
	s.mu.Unlock()
}

// Done reports whether every slot has completed.
func (s *Scheduler) Done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sl := range s.slots {
		if !sl.done {
			return false
		}
	}
	return true
}

// CampaignStatus is the /status view of one campaign.
type CampaignStatus struct {
	ID      string `json:"id"`
	Driver  string `json:"driver"`
	Mode    string `json:"mode"`
	Slots   int    `json:"slots"`
	Running int    `json:"running"`
	Done    int    `json:"done"`
	// Reissues counts lease expirations across the campaign's slots — how
	// often a crashed worker's work had to be handed back out.
	Reissues int `json:"reissues"`
}

// WorkerStatus is the /status view of one connected worker.
type WorkerStatus struct {
	ID       string    `json:"id"`
	LastSeen time.Time `json:"last_seen"`
	Lease    string    `json:"lease,omitempty"`
}

// Status snapshots the scheduler for the HTTP layer.
func (s *Scheduler) Status() (campaigns []CampaignStatus, workers []WorkerStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	byID := make(map[string]*CampaignStatus)
	var order []string
	for _, sl := range s.slots {
		cs := byID[sl.campaign.ID]
		if cs == nil {
			cs = &CampaignStatus{ID: sl.campaign.ID, Driver: sl.campaign.Driver, Mode: sl.campaign.Mode}
			byID[sl.campaign.ID] = cs
			order = append(order, sl.campaign.ID)
		}
		cs.Slots++
		cs.Reissues += sl.generation
		if sl.done {
			cs.Done++
		} else if sl.lease != nil {
			cs.Running++
		}
	}
	for _, id := range order {
		campaigns = append(campaigns, *byID[id])
	}
	for _, w := range s.workers {
		workers = append(workers, WorkerStatus{ID: w.id, LastSeen: w.lastSeen, Lease: w.lease})
	}
	sort.Slice(workers, func(i, j int) bool { return workers[i].ID < workers[j].ID })
	return campaigns, workers
}
