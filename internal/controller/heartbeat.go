package controller

import (
	"fmt"
	"sync"
	"time"

	"switchboard/internal/bus"
	"switchboard/internal/simnet"
)

// Site-failure detection (Section 7.3's failure handling made
// automatic): every Local Switchboard publishes periodic liveness
// beacons on a bus topic homed at Global Switchboard's site, and a
// detector goroutine at the Global Switchboard turns sustained silence
// into HandleSiteFailure — and resumed beacons into HandleSiteRecovery.
// The beacons ride the reliable bus, so ordinary WAN loss does not
// starve them; only a partition toward the controller or a site crash
// does, which is exactly what should trip the detector.

// Heartbeat is the liveness beacon a Local Switchboard publishes.
type Heartbeat struct {
	Site simnet.SiteID
	Seq  uint64
}

// HeartbeatsTopic is the liveness feed, homed at Global Switchboard's
// site so every beacon crosses the wide area exactly once.
func HeartbeatsTopic(gsbSite simnet.SiteID) bus.Topic {
	return bus.MakeTopic("health", "all", "global", gsbSite, "heartbeats")
}

// StartHeartbeats begins publishing liveness beacons every interval
// until the Local Switchboard is closed. Safe to call once per LS.
func (ls *LocalSwitchboard) StartHeartbeats(interval time.Duration) {
	ls.mu.Lock()
	if ls.closed || ls.heartbeats {
		ls.mu.Unlock()
		return
	}
	ls.heartbeats = true
	ls.wg.Add(1)
	ls.mu.Unlock()

	go func() {
		defer ls.wg.Done()
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var seq uint64
		topic := HeartbeatsTopic(ls.gsbSite)
		for {
			seq++
			_ = ls.bus.Publish(ls.site, topic, Heartbeat{Site: ls.site, Seq: seq}, 16)
			select {
			case <-ls.stop:
				return
			case <-ticker.C:
			}
		}
	}()
}

// DetectorConfig tunes the failure detector. Zero fields take defaults.
type DetectorConfig struct {
	// Interval is how often liveness is evaluated.
	Interval time.Duration
	// SuspectAfter is the heartbeat silence that makes a site suspect.
	SuspectAfter time.Duration
	// Debounce is how many consecutive suspect evaluations are required
	// before the site is declared failed — one slow beacon is not a
	// site crash.
	Debounce int
	// Beat, when set, is called on every evaluation tick — the failure
	// detector's own health-watchdog heartbeat (the watcher is itself
	// watched). The ticker fires regardless of traffic.
	Beat func()
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.Interval <= 0 {
		c.Interval = 25 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 150 * time.Millisecond
	}
	if c.Debounce <= 0 {
		c.Debounce = 2
	}
	return c
}

// StartFailureDetector subscribes to the heartbeat feed and watches for
// sites going silent. A site that stays suspect for Debounce consecutive
// checks is declared failed: its VNF deployments are failed and its
// chains rerouted via HandleSiteFailure. When a failed site's beacons
// resume, it is re-admitted via HandleSiteRecovery. Only sites that have
// heartbeated at least once are tracked. The returned stop function
// blocks until the detector goroutines exit.
func (g *GlobalSwitchboard) StartFailureDetector(cfg DetectorConfig) (stop func(), err error) {
	cfg = cfg.withDefaults()
	sub, err := g.bus.Subscribe(g.site, HeartbeatsTopic(g.site), 1024)
	if err != nil {
		return nil, fmt.Errorf("controller: failure detector subscribing: %w", err)
	}

	var mu sync.Mutex
	lastSeen := make(map[simnet.SiteID]time.Time)
	stopCh := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		for pub := range sub.Ch() {
			hb, ok := pub.Payload.(Heartbeat)
			if !ok {
				continue
			}
			mu.Lock()
			lastSeen[hb.Site] = time.Now()
			mu.Unlock()
		}
	}()

	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(cfg.Interval)
		defer ticker.Stop()
		suspicion := make(map[simnet.SiteID]int)
		for {
			select {
			case <-stopCh:
				return
			case <-ticker.C:
			}
			if cfg.Beat != nil {
				cfg.Beat()
			}
			now := time.Now()
			mu.Lock()
			seen := make(map[simnet.SiteID]time.Time, len(lastSeen))
			for s, t := range lastSeen {
				seen[s] = t
			}
			mu.Unlock()
			for site, t := range seen {
				if site == g.site {
					continue
				}
				silent := now.Sub(t) > cfg.SuspectAfter
				failed := g.SiteFailed(site)
				switch {
				case silent && !failed:
					suspicion[site]++
					if suspicion[site] >= cfg.Debounce {
						g.setFailed(site, true)
						g.timeline().Record(fmt.Sprintf("detector: site %s declared failed after %d silent checks", site, suspicion[site]))
						// The failover span tree: the total is anchored at
						// the last heartbeat actually seen, with two
						// contiguous children — detect covers last beat →
						// declaration, handle covers declaration →
						// recovery complete — so the children's durations
						// sum to the total.
						declared := time.Now()
						rec := g.recorder()
						total := rec.StartAt("controlplane.failover", "controlplane.failover_ms", 0, t)
						total.Event("site: " + string(site))
						det := rec.StartAt("controlplane.detect", "controlplane.detect_ms", total.ID(), t)
						det.Event(fmt.Sprintf("declared failed after %d silent checks", suspicion[site]))
						det.End()
						handle := rec.StartAt("controlplane.handle", "", total.ID(), declared)
						prev := g.opParent.Swap(handle.ID())
						_, herr := g.HandleSiteFailure(site)
						g.opParent.Store(prev)
						handle.Fail(herr)
						handle.End()
						total.Fail(herr)
						total.End()
					}
				case !silent && failed:
					// Beacons resumed: the site is back.
					suspicion[site] = 0
					g.setFailed(site, false)
					g.timeline().Record(fmt.Sprintf("detector: site %s heartbeats resumed, re-admitting", site))
					rsp := g.recorder().Start("controlplane.recovery", "", 0)
					rsp.Event("heartbeats resumed: " + string(site))
					rsp.Fail(g.HandleSiteRecovery(site))
					rsp.End()
				case !silent:
					suspicion[site] = 0
				}
			}
		}
	}()

	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopCh)
			sub.Cancel()
			wg.Wait()
		})
	}, nil
}

// SiteFailed reports whether the detector currently considers the site
// failed.
func (g *GlobalSwitchboard) SiteFailed(site simnet.SiteID) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failedSites[site]
}

func (g *GlobalSwitchboard) setFailed(site simnet.SiteID, failed bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if failed {
		g.failedSites[site] = true
	} else {
		delete(g.failedSites, site)
	}
}

func (g *GlobalSwitchboard) timeline() *Timeline {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.tl
}

// HandleSiteRecovery re-admits a site whose compute was failed: every
// VNF controller's deployment there is revived at its pre-failure
// capacity, stale instance-allocation markers are cleared so instances
// are re-created on demand, and the joint optimization re-spreads the
// installed chains — routes may move back onto the recovered site.
func (g *GlobalSwitchboard) HandleSiteRecovery(site simnet.SiteID) error {
	g.mu.Lock()
	vnfs := make([]*VNFController, 0, len(g.vnfs))
	for _, v := range g.vnfs {
		vnfs = append(vnfs, v)
	}
	for _, cr := range g.chains {
		for _, perSite := range cr.allocated {
			// The site's instances died with it; forget they existed so
			// allocateInstances provisions fresh ones if routes return.
			delete(perSite, site)
		}
	}
	tl := g.tl
	g.mu.Unlock()

	for _, v := range vnfs {
		v.ReviveSite(site)
	}
	tl.Record(fmt.Sprintf("site %s revived: re-running joint optimization", site))
	if err := g.OptimizeAll(); err != nil {
		return fmt.Errorf("controller: re-admitting %s: %w", site, err)
	}
	tl.Record(fmt.Sprintf("site %s re-admitted", site))
	return nil
}
