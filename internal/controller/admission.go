package controller

import (
	"fmt"
	"time"

	"switchboard/internal/model"
	"switchboard/internal/simnet"
)

// Batched admission: instead of solving traffic engineering once per
// CreateChain, the Global Switchboard can gather requests that arrive
// within a short window and admit them through a single joint solve —
// one model build, one optimizer run, one route publish for the whole
// batch. At production request rates this turns the per-chain solve
// cost into a per-batch cost and, because the joint problem sees every
// pending chain at once, avoids the serial-admission pathology where
// early chains grab instances later chains needed (the same visibility
// argument as OptimizeAll, applied at admission time).
//
// Chains the joint solve cannot fully route — or whose reservations a
// VNF controller rejects — are retried individually through the normal
// unbatched path before being refused, so batching never rejects a
// chain that solo admission would have accepted.

// maxAdmissionBatch caps how many requests one batch accumulates; a
// full batch flushes immediately without waiting out the window.
const maxAdmissionBatch = 64

type admitResult struct {
	rec *RouteRecord
	err error
}

// pendingAdmit is one queued CreateChain request; exactly one result is
// always delivered on done, even when the batcher is disabled mid-wait.
type pendingAdmit struct {
	spec Spec
	done chan admitResult
}

// SetAdmissionWindow enables batched admission: CreateChain requests
// arriving within d of each other are solved jointly. d = 0 restores
// immediate per-request admission. Any requests pending at the time of
// the call are flushed, so no caller is left waiting under the old
// setting.
func (g *GlobalSwitchboard) SetAdmissionWindow(d time.Duration) {
	g.admitMu.Lock()
	g.admitWindow = d
	t := g.admitTimer
	g.admitTimer = nil
	g.admitMu.Unlock()
	if t != nil {
		t.Stop()
	}
	g.flushAdmissions()
}

// admitBatched enqueues the request when batching is enabled and blocks
// for its result. batched reports whether the request was handled here;
// false means batching is off and the caller should admit directly.
func (g *GlobalSwitchboard) admitBatched(spec Spec) (rec *RouteRecord, err error, batched bool) {
	g.admitMu.Lock()
	if g.admitWindow == 0 {
		g.admitMu.Unlock()
		return nil, nil, false
	}
	done := make(chan admitResult, 1)
	g.admitQueue = append(g.admitQueue, pendingAdmit{spec: spec, done: done})
	full := len(g.admitQueue) >= maxAdmissionBatch
	var stopped *time.Timer
	if full {
		stopped = g.admitTimer
		g.admitTimer = nil
	} else if g.admitTimer == nil {
		g.admitTimer = time.AfterFunc(g.admitWindow, g.flushAdmissions)
	}
	g.admitMu.Unlock()

	if full {
		if stopped != nil {
			stopped.Stop()
		}
		g.flushAdmissions()
	}
	r := <-done
	return r.rec, r.err, true
}

// flushAdmissions drains the pending queue and admits it as one batch.
// Safe to call from the window timer, a full-batch enqueuer, or
// SetAdmissionWindow; an empty queue is a no-op.
func (g *GlobalSwitchboard) flushAdmissions() {
	g.admitMu.Lock()
	batch := g.admitQueue
	g.admitQueue = nil
	if g.admitTimer != nil {
		g.admitTimer.Stop()
		g.admitTimer = nil
	}
	g.admitMu.Unlock()
	if len(batch) == 0 {
		return
	}
	g.batchSize.Observe(time.Duration(len(batch)))
	results := g.admitBatch(batch)
	for i := range batch {
		batch[i].done <- results[i]
	}
}

// admitBatch admits a batch of requests through one joint solve,
// falling back to individual admission for chains the joint solution
// could not place. Returns one result per request, index-aligned.
func (g *GlobalSwitchboard) admitBatch(batch []pendingAdmit) []admitResult {
	results := make([]admitResult, len(batch))
	if len(batch) == 1 {
		rec, err := g.createOne(batch[0].spec)
		results[0] = admitResult{rec: rec, err: err}
		return results
	}
	g.mu.Lock()
	tl := g.tl
	g.mu.Unlock()
	if tl != nil {
		tl.Record(fmt.Sprintf("admission batch of %d", len(batch)))
	}

	// Per-request setup that cannot be shared: duplicate checks, edge
	// instances, and label allocation.
	type candidate struct {
		idx                 int
		spec                Spec
		chainLabel, egLabel uint32
	}
	var cands []candidate
	seen := make(map[ChainID]bool, len(batch))
	for i, p := range batch {
		spec := p.spec
		g.mu.Lock()
		_, dup := g.chains[spec.ID]
		g.mu.Unlock()
		if dup || seen[spec.ID] {
			results[i] = admitResult{err: fmt.Errorf("controller: chain %s already exists", spec.ID)}
			continue
		}
		seen[spec.ID] = true
		if _, err := g.ensureEdgeAt(spec.IngressSite); err != nil {
			results[i] = admitResult{err: err}
			continue
		}
		egLabel, err := g.ensureEdgeAt(spec.EgressSite)
		if err != nil {
			results[i] = admitResult{err: err}
			continue
		}
		chainLabel, err := g.allocLabel()
		if err != nil {
			results[i] = admitResult{err: err}
			continue
		}
		cands = append(cands, candidate{idx: i, spec: spec, chainLabel: chainLabel, egLabel: egLabel})
	}
	if len(cands) == 0 {
		return results
	}

	// solo retries one candidate through the unbatched path (which
	// allocates its own label) after returning the batch's label.
	solo := func(c candidate) {
		g.releaseLabel(c.chainLabel)
		rec, err := g.createOne(c.spec)
		results[c.idx] = admitResult{rec: rec, err: err}
	}
	soloAll := func() {
		for _, c := range cands {
			solo(c)
		}
	}

	specs := make([]Spec, len(cands))
	for i, c := range cands {
		specs[i] = c.spec
	}
	nw, nodeOf, err := g.buildModelMulti(specs)
	if err != nil {
		// A wholesale model failure (e.g. one spec references an
		// unknown VNF) poisons the joint build; individual admission
		// sorts the good requests from the bad one.
		soloAll()
		return results
	}
	siteOf := make(map[model.NodeID]simnet.SiteID, len(nodeOf))
	for s, n := range nodeOf {
		siteOf[n] = s
	}
	csp := g.recorder().Start("gs.path_compute", "gs.path_compute_ms", 0)
	routing, err := g.routeChain(nw)
	if err != nil {
		csp.Fail(err)
		csp.End()
		soloAll()
		return results
	}
	csp.End()
	tl.Record("admission batch solved jointly")

	minRouted := 0.999
	if g.NoAdmissionControl {
		minRouted = 1e-9
	}
	type created struct {
		idx int
		cr  *chainRecord
	}
	var installed []created
	for _, c := range cands {
		split := routing.Splits[model.ChainID(c.spec.ID)]
		if split == nil || split.RoutedFraction() < minRouted {
			// Joint contention: the batch as a whole could not fit this
			// chain, but alone (against post-batch capacity) it may.
			solo(c)
			continue
		}
		load := vnfLoads(nw, c.spec, split, siteOf)
		if !g.commitLoads(c.spec.ID, load) {
			solo(c)
			continue
		}
		rec := g.recordFromSplit(c.spec, split, siteOf, c.chainLabel, c.egLabel)
		cr := &chainRecord{
			spec:          c.spec,
			rec:           rec,
			committedLoad: load,
			allocated:     make(map[string]map[simnet.SiteID]bool),
		}
		g.mu.Lock()
		g.storeChainLocked(c.spec.ID, cr)
		g.mu.Unlock()
		results[c.idx] = admitResult{rec: rec}
		installed = append(installed, created{idx: c.idx, cr: cr})
		g.chainsCreated.Add(1)
	}
	if len(installed) == 0 {
		return results
	}

	// One snapshot publish covers every jointly admitted chain, then
	// instances are allocated per chain as usual.
	if err := g.publishRoute(); err != nil {
		for _, in := range installed {
			results[in.idx] = admitResult{err: err}
		}
		return results
	}
	for _, in := range installed {
		if err := g.allocateInstances(in.cr); err != nil {
			results[in.idx] = admitResult{err: err}
		}
	}
	if tl != nil {
		tl.Record(fmt.Sprintf("admission batch committed: %d joint", len(installed)))
	}
	return results
}

// commitLoads runs one chain's two-phase commit against the VNF
// controllers on its route, reporting whether every reservation held.
func (g *GlobalSwitchboard) commitLoads(id ChainID, load map[string]map[simnet.SiteID]float64) bool {
	if g.NoAdmissionControl {
		for vnfName, perSite := range load {
			if v := g.vnf(vnfName); v != nil {
				v.ForceCommit(perSite)
			}
		}
		return true
	}
	tx := g.nextTx(id)
	var prepared []*VNFController
	for vnfName, perSite := range load {
		v := g.vnf(vnfName)
		if v == nil {
			continue
		}
		if err := v.Prepare(tx, perSite); err != nil {
			for _, p := range prepared {
				p.Abort(tx)
			}
			return false
		}
		prepared = append(prepared, v)
	}
	for _, p := range prepared {
		p.Commit(tx)
	}
	return true
}

func (g *GlobalSwitchboard) releaseLabel(l uint32) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.alloc.Release(l)
}
