package telemetry

import (
	"encoding/json"
	"sync"
	"time"

	"switchboard/internal/bus"
	"switchboard/internal/metrics"
	"switchboard/internal/obs"
	"switchboard/internal/simnet"
	"switchboard/internal/slo"
)

// Agent defaults. Every bound exists to cap report size and agent
// memory: the telemetry plane must stay cheap enough to run everywhere,
// always.
const (
	// DefaultInterval paces report capture.
	DefaultInterval = time.Second
	// DefaultMaxSpans / DefaultMaxEvents cap control-plane records per
	// report (newest win).
	DefaultMaxSpans  = 128
	DefaultMaxEvents = 256
	// DefaultMaxAlerts caps SLO alerts per report.
	DefaultMaxAlerts = 64
	// DefaultMaxHops caps packet-trace hop records per report.
	DefaultMaxHops = 512
	// DefaultMaxReportBytes caps the marshalled report; oversized
	// reports are trimmed (spans, events, hops halved) until they fit.
	DefaultMaxReportBytes = 256 << 10
	// DefaultPublishQueue bounds reports waiting on the publisher
	// goroutine; beyond it the agent sheds.
	DefaultPublishQueue = 4
)

// AgentConfig wires a site telemetry agent. Site, Registry, Bus and
// Topic are required; everything else is optional or defaulted.
type AgentConfig struct {
	// Site is the reporting site's identifier.
	Site simnet.SiteID
	// Registry is the local metrics registry the agent folds.
	Registry *metrics.Registry
	// Filter, when non-nil, keeps only metric names it returns true
	// for — how a shared-process simulation carves per-site views. Nil
	// ships everything.
	Filter func(name string) bool
	// Recorder, when non-nil, contributes spans and events new since
	// the previous report.
	Recorder *obs.Recorder
	// SLO, when non-nil, contributes alerts that fired or resolved
	// since the previous report (AlertsSince — the ?since= increment).
	SLO *slo.Evaluator
	// Healthy, when non-nil, is the site's /healthz-equivalent probe;
	// nil reports healthy.
	Healthy func(now time.Time) bool
	// Traces, when non-nil, is drained for packet-trace hop records.
	Traces *TraceBuffer
	// Bus carries reports; Topic is the fleet feed (Topic(gsbSite)).
	Bus   bus.PubSub
	Topic bus.Topic
	// Interval paces capture (≤ 0 → DefaultInterval).
	Interval time.Duration
	// MaxSpans, MaxEvents, MaxAlerts, MaxHops, MaxReportBytes and
	// Queue bound the report and the agent (≤ 0 → the defaults above).
	MaxSpans, MaxEvents, MaxAlerts, MaxHops int
	MaxReportBytes                          int
	// SummarySamples bounds each histogram summary's sketch
	// (≤ 0 → metrics.DefaultSummarySamples).
	SummarySamples int
	Queue          int
}

func (c AgentConfig) withDefaults() AgentConfig {
	if c.Interval <= 0 {
		c.Interval = DefaultInterval
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = DefaultMaxSpans
	}
	if c.MaxEvents <= 0 {
		c.MaxEvents = DefaultMaxEvents
	}
	if c.MaxAlerts <= 0 {
		c.MaxAlerts = DefaultMaxAlerts
	}
	if c.MaxHops <= 0 {
		c.MaxHops = DefaultMaxHops
	}
	if c.MaxReportBytes <= 0 {
		c.MaxReportBytes = DefaultMaxReportBytes
	}
	if c.SummarySamples <= 0 {
		c.SummarySamples = metrics.DefaultSummarySamples
	}
	if c.Queue <= 0 {
		c.Queue = DefaultPublishQueue
	}
	return c
}

// Agent is a site's telemetry reporter: on every interval it captures
// one Report (delta counters, gauge values, bounded histogram
// summaries, new spans/events/alerts, staged trace hops) and hands it
// to a publisher goroutine through a bounded queue. A full queue — the
// bus or the network being slow — sheds the report and counts
// telemetry.sheds; capture never blocks on publishing. All methods are
// safe for concurrent use.
type Agent struct {
	cfg AgentConfig

	reportsSent *metrics.Counter
	sheds       *metrics.Counter
	reportBytes *metrics.Histogram

	queue chan *Report

	mu           sync.Mutex
	epoch        int64 // boot epoch (first capture instant, Unix ns)
	seq          uint64
	prevCounters map[string]uint64
	lastSpanID   uint64
	lastEventNs  int64
	// alertCursor is just past the newest fired/resolved stamp shipped.
	alertCursor time.Time

	startOnce sync.Once
	stop      chan struct{}
	done      sync.WaitGroup
}

// NewAgent returns an agent for cfg (defaults applied). Call Start to
// begin reporting; RegisterMetrics to publish the agent's own counters.
func NewAgent(cfg AgentConfig) *Agent {
	cfg = cfg.withDefaults()
	return &Agent{
		cfg:          cfg,
		reportsSent:  &metrics.Counter{},
		sheds:        &metrics.Counter{},
		reportBytes:  metrics.NewHistogram(),
		queue:        make(chan *Report, cfg.Queue),
		prevCounters: make(map[string]uint64),
		stop:         make(chan struct{}),
	}
}

// RegisterMetrics publishes the agent's own instruments into reg:
//
//	telemetry.reports_sent  reports handed to the bus
//	telemetry.sheds         reports dropped because the plane was slow
//	                        (shared create-or-get counter: the
//	                        aggregator's subscriber-side sheds fold
//	                        into the same name in one process)
//	telemetry.report_bytes  marshalled report size (bytes, as ns units
//	                        in the histogram convention)
func (a *Agent) RegisterMetrics(reg *metrics.Registry) {
	shared := reg.Counter("telemetry.sheds")
	a.mu.Lock()
	shared.Add(a.sheds.Load())
	a.sheds = shared
	a.mu.Unlock()
	reg.CounterFunc("telemetry.reports_sent", a.reportsSent.Load)
	reg.RegisterHistogram("telemetry.report_bytes", a.reportBytes)
}

// shed counts one shed report. The counter pointer is read under the
// lock because RegisterMetrics swaps it for the registry-shared one.
func (a *Agent) shed() {
	a.mu.Lock()
	s := a.sheds
	a.mu.Unlock()
	s.Inc()
}

// Sheds returns reports shed so far (queue full at capture time).
func (a *Agent) Sheds() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.sheds.Load()
}

// ReportsSent returns reports handed to the bus so far.
func (a *Agent) ReportsSent() uint64 { return a.reportsSent.Load() }

// Start launches the capture ticker and the publisher goroutine,
// returning a stop function. Start is idempotent.
func (a *Agent) Start() func() {
	a.startOnce.Do(func() {
		a.done.Add(2)
		go func() {
			defer a.done.Done()
			t := time.NewTicker(a.cfg.Interval)
			defer t.Stop()
			for {
				select {
				case <-a.stop:
					return
				case now := <-t.C:
					a.Flush(now)
				}
			}
		}()
		go func() {
			defer a.done.Done()
			for {
				select {
				case <-a.stop:
					return
				case r := <-a.queue:
					a.publish(r)
				}
			}
		}()
	})
	var once sync.Once
	return func() {
		once.Do(func() {
			close(a.stop)
			a.done.Wait()
		})
	}
}

// Flush captures one report now and enqueues it for publishing,
// shedding (and counting) if the publish queue is full. It is the
// ticker body, exported so tests and harnesses can pace the agent
// deterministically. Returns the captured report (even when shed).
func (a *Agent) Flush(now time.Time) *Report {
	r := a.collect(now)
	select {
	case a.queue <- r:
	default:
		a.shed()
	}
	return r
}

// publish marshals (for sizing and the bytes histogram), trims an
// oversized report, and hands it to the bus. Runs on the publisher
// goroutine only.
func (a *Agent) publish(r *Report) {
	size := a.sizeAndTrim(r)
	a.reportBytes.Observe(time.Duration(size))
	if err := a.cfg.Bus.Publish(a.cfg.Site, a.cfg.Topic, r, size); err != nil {
		a.shed()
		return
	}
	a.reportsSent.Inc()
}

// sizeAndTrim returns the marshalled size of r, halving its variable-
// length sections (spans, events, hops, then alerts) while the report
// exceeds MaxReportBytes. Trimming keeps the newest records — the ones
// the fleet view is behind on. Every trim uses ceil-halving so a
// length-1 section reaches empty: even when the untrimmable base
// sections (counters, gauges, summaries) alone exceed the cap, the
// loop terminates instead of spinning on a report it cannot shrink.
func (a *Agent) sizeAndTrim(r *Report) int {
	for {
		data, err := json.Marshal(r)
		if err != nil {
			return 0
		}
		if len(data) <= a.cfg.MaxReportBytes {
			return len(data)
		}
		if len(r.Spans) == 0 && len(r.Events) == 0 && len(r.Hops) == 0 && len(r.Alerts) == 0 {
			return len(data)
		}
		r.Spans = keepNewestSpans(r.Spans, len(r.Spans)/2)
		r.Events = keepNewestEvents(r.Events, len(r.Events)/2)
		r.Hops = r.Hops[(len(r.Hops)+1)/2:]
		if len(r.Spans) == 0 && len(r.Events) == 0 && len(r.Hops) == 0 {
			r.Alerts = r.Alerts[(len(r.Alerts)+1)/2:]
		}
	}
}

func keepNewestSpans(s []obs.Span, n int) []obs.Span {
	if len(s) <= n {
		return s
	}
	return s[len(s)-n:]
}

func keepNewestEvents(e []obs.Event, n int) []obs.Event {
	if len(e) <= n {
		return e
	}
	return e[len(e)-n:]
}

// collect captures one report: the delta-encoded registry fold plus the
// span/event/alert/hop increments since the previous capture.
func (a *Agent) collect(now time.Time) *Report {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.epoch == 0 {
		// Stamp the boot epoch on first capture: a restarted agent
		// resets Seq to 1, and the aggregator tells that apart from a
		// replayed report by the epoch changing.
		a.epoch = now.UnixNano()
	}
	a.seq++
	r := &Report{
		Site:       string(a.cfg.Site),
		Epoch:      a.epoch,
		Seq:        a.seq,
		TakenAtNs:  now.UnixNano(),
		IntervalNs: int64(a.cfg.Interval),
		Healthy:    true,
	}
	if a.cfg.Healthy != nil {
		r.Healthy = a.cfg.Healthy(now)
	}

	snap := a.cfg.Registry.Snapshot()
	keep := a.cfg.Filter
	r.Counters = make(map[string]uint64)
	for n, v := range snap.Counters {
		if keep != nil && !keep(n) {
			continue
		}
		prev := a.prevCounters[n]
		if v < prev {
			// Re-registration reset the series; restart the delta base.
			prev = 0
		}
		if d := v - prev; d > 0 {
			r.Counters[n] = d
		}
		a.prevCounters[n] = v
	}
	r.Gauges = make(map[string]float64)
	for n, v := range snap.Gauges {
		if keep != nil && !keep(n) {
			continue
		}
		r.Gauges[n] = v
	}
	r.Histograms = make(map[string]metrics.HistogramSummary)
	for n, h := range a.cfg.Registry.Histograms() {
		if keep != nil && !keep(n) {
			continue
		}
		r.Histograms[n] = h.Summarize(a.cfg.SummarySamples)
	}
	r.Keyed = make(map[string]string)
	for n, p := range snap.Keyed {
		if keep != nil && !keep(n) {
			continue
		}
		r.Keyed[n] = p
	}

	if a.cfg.Recorder != nil {
		for _, sp := range a.cfg.Recorder.Spans() {
			if sp.ID > a.lastSpanID {
				r.Spans = append(r.Spans, sp)
			}
		}
		r.Spans = keepNewestSpans(r.Spans, a.cfg.MaxSpans)
		for _, sp := range r.Spans {
			if sp.ID > a.lastSpanID {
				a.lastSpanID = sp.ID
			}
		}
		for _, ev := range a.cfg.Recorder.Events() {
			if ev.AtNs > a.lastEventNs {
				r.Events = append(r.Events, ev)
			}
		}
		r.Events = keepNewestEvents(r.Events, a.cfg.MaxEvents)
		for _, ev := range r.Events {
			if ev.AtNs > a.lastEventNs {
				a.lastEventNs = ev.AtNs
			}
		}
	}

	if a.cfg.SLO != nil {
		alerts := a.cfg.SLO.AlertsSince(a.alertCursor)
		if len(alerts) > a.cfg.MaxAlerts {
			alerts = alerts[len(alerts)-a.cfg.MaxAlerts:]
		}
		r.Alerts = alerts
		// The cursor follows the shipped stamps, not this capture's time:
		// an evaluator pass stamps alerts with its tick time, which can
		// precede a capture that ran before the pass finished.
		for _, al := range alerts {
			for _, at := range [2]time.Time{al.FiredAt, al.ResolvedAt} {
				if !at.IsZero() && !at.Before(a.alertCursor) {
					a.alertCursor = at.Add(time.Nanosecond)
				}
			}
		}
	}

	if a.cfg.Traces != nil {
		r.Hops = a.cfg.Traces.Drain(a.cfg.MaxHops)
	}
	return r
}
