package telemetry

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"switchboard/internal/bus"
	"switchboard/internal/metrics"
	"switchboard/internal/obs"
	"switchboard/internal/simnet"
	"switchboard/internal/slo"
)

// captureBus is a PubSub stub that records published reports.
type captureBus struct {
	mu   sync.Mutex
	pubs []*Report
	err  error
}

func (c *captureBus) Subscribe(simnet.SiteID, bus.Topic, int) (*bus.Subscription, error) {
	panic("captureBus does not subscribe")
}

func (c *captureBus) Publish(_ simnet.SiteID, _ bus.Topic, payload any, _ int) error {
	if c.err != nil {
		return c.err
	}
	c.mu.Lock()
	c.pubs = append(c.pubs, payload.(*Report))
	c.mu.Unlock()
	return nil
}

func (c *captureBus) WANMessages() uint64 { return 0 }

func (c *captureBus) published() []*Report {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]*Report(nil), c.pubs...)
}

func testAgent(cfg AgentConfig) *Agent {
	if cfg.Site == "" {
		cfg.Site = "A"
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Bus == nil {
		cfg.Bus = &captureBus{}
	}
	if cfg.Topic == "" {
		cfg.Topic = Topic("GSB")
	}
	return NewAgent(cfg)
}

func TestAgentDeltaEncodesCounters(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("fwd.rx")
	quiet := reg.Counter("fwd.quiet")
	_ = quiet
	a := testAgent(AgentConfig{Registry: reg})

	c.Add(10)
	r1 := a.collect(time.Unix(100, 0))
	if r1.Seq != 1 || r1.Counters["fwd.rx"] != 10 {
		t.Fatalf("first report: seq=%d rx=%d, want 1/10", r1.Seq, r1.Counters["fwd.rx"])
	}
	if _, ok := r1.Counters["fwd.quiet"]; ok {
		t.Error("zero counter shipped; deltas should skip names that never advanced")
	}

	c.Add(5)
	r2 := a.collect(time.Unix(101, 0))
	if r2.Counters["fwd.rx"] != 5 {
		t.Errorf("second report delta = %d, want 5", r2.Counters["fwd.rx"])
	}

	// No advance → name absent entirely.
	r3 := a.collect(time.Unix(102, 0))
	if _, ok := r3.Counters["fwd.rx"]; ok {
		t.Error("unchanged counter shipped a delta")
	}

	// Re-registration reset: value below the remembered base restarts
	// the delta from zero instead of underflowing.
	reg.CounterFunc("fwd.rx", func() uint64 { return 3 })
	r4 := a.collect(time.Unix(103, 0))
	if r4.Counters["fwd.rx"] != 3 {
		t.Errorf("post-reset delta = %d, want 3", r4.Counters["fwd.rx"])
	}
}

func TestAgentFilterCarvesSiteView(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("forwarder.a.rx").Add(1)
	reg.Counter("forwarder.b.rx").Add(2)
	reg.GaugeFunc("forwarder.a.depth", func() float64 { return 4 })
	reg.Histogram("forwarder.b.lat").Observe(time.Millisecond)
	a := testAgent(AgentConfig{
		Registry: reg,
		Filter:   func(name string) bool { return strings.HasPrefix(name, "forwarder.a.") },
	})
	r := a.collect(time.Unix(1, 0))
	if _, ok := r.Counters["forwarder.b.rx"]; ok {
		t.Error("filter leaked another site's counter")
	}
	if _, ok := r.Histograms["forwarder.b.lat"]; ok {
		t.Error("filter leaked another site's histogram")
	}
	if r.Counters["forwarder.a.rx"] != 1 || r.Gauges["forwarder.a.depth"] != 4 {
		t.Errorf("filtered view missing own metrics: %+v %+v", r.Counters, r.Gauges)
	}
}

func TestAgentIncrementalSpansEventsAlerts(t *testing.T) {
	reg := metrics.NewRegistry()
	rec := obs.NewRecorder(64, 64, reg)
	var drops atomic.Uint64
	ev := slo.New(slo.Config{FireAfter: 1, ResolveAfter: 100})
	h := metrics.NewHistogram()
	ev.Track(slo.ChainSLO{Chain: "c1", Budget: time.Second, E2E: h, Drops: drops.Load})

	a := testAgent(AgentConfig{Registry: reg, Recorder: rec, SLO: ev, MaxSpans: 2})

	rec.Start("s1", "", 0).End()
	rec.Start("s2", "", 0).End()
	rec.Start("s3", "", 0).End()
	rec.Log("e1")

	ev.Evaluate(time.Unix(10, 0)) // baseline interval
	drops.Add(5)
	ev.Evaluate(time.Unix(11, 0)) // breach → fires (FireAfter 1)

	r1 := a.collect(time.Unix(100, 0))
	if len(r1.Spans) != 2 {
		t.Fatalf("spans = %d, want MaxSpans cap of 2", len(r1.Spans))
	}
	// Cap keeps the newest spans.
	if r1.Spans[0].Name != "s2" || r1.Spans[1].Name != "s3" {
		t.Errorf("span cap kept %q,%q, want newest s2,s3", r1.Spans[0].Name, r1.Spans[1].Name)
	}
	if len(r1.Events) != 1 || r1.Events[0].Name != "e1" {
		t.Errorf("events = %+v, want [e1]", r1.Events)
	}
	if len(r1.Alerts) != 1 || r1.Alerts[0].Chain != "c1" {
		t.Fatalf("alerts = %+v, want the fired c1 alert", r1.Alerts)
	}

	// Second interval with nothing new: all increments empty.
	r2 := a.collect(time.Unix(200, 0))
	if len(r2.Spans) != 0 || len(r2.Events) != 0 || len(r2.Alerts) != 0 {
		t.Errorf("second interval re-shipped: %d spans %d events %d alerts",
			len(r2.Spans), len(r2.Events), len(r2.Alerts))
	}

	// New span after the cursor ships alone.
	rec.Start("s4", "", 0).End()
	r3 := a.collect(time.Unix(300, 0))
	if len(r3.Spans) != 1 || r3.Spans[0].Name != "s4" {
		t.Errorf("third interval spans = %+v, want just s4", r3.Spans)
	}
}

// TestAgentShipsAlertsStampedBeforeCapture covers an evaluator pass that
// ticked before a capture and finished after it: its alert carries the
// tick time, earlier than the capture, and must still ship in the next
// report, as must a resolution stamped the same way.
func TestAgentShipsAlertsStampedBeforeCapture(t *testing.T) {
	reg := metrics.NewRegistry()
	var drops atomic.Uint64
	ev := slo.New(slo.Config{FireAfter: 1, ResolveAfter: 1})
	ev.Track(slo.ChainSLO{Chain: "c1", Budget: time.Second, E2E: metrics.NewHistogram(), Drops: drops.Load})
	a := testAgent(AgentConfig{Registry: reg, SLO: ev})

	ev.Evaluate(time.Unix(10, 0)) // baseline interval
	if r := a.collect(time.Unix(100, 0)); len(r.Alerts) != 0 {
		t.Fatalf("alerts before any breach: %+v", r.Alerts)
	}
	drops.Add(5)
	ev.Evaluate(time.Unix(50, 0)) // ticked before the capture at 100
	r := a.collect(time.Unix(200, 0))
	if len(r.Alerts) != 1 || r.Alerts[0].Chain != "c1" || !r.Alerts[0].FiredAt.Equal(time.Unix(50, 0)) {
		t.Fatalf("alerts = %+v, want c1 fired at 50s", r.Alerts)
	}
	if r := a.collect(time.Unix(300, 0)); len(r.Alerts) != 0 {
		t.Fatalf("fired alert re-shipped: %+v", r.Alerts)
	}
	ev.Evaluate(time.Unix(250, 0)) // clear: resolves, ticked before 300
	r = a.collect(time.Unix(400, 0))
	if len(r.Alerts) != 1 || !r.Alerts[0].ResolvedAt.Equal(time.Unix(250, 0)) {
		t.Fatalf("alerts = %+v, want c1 resolved at 250s", r.Alerts)
	}
}

func TestAgentShedsOnFullQueue(t *testing.T) {
	reg := metrics.NewRegistry()
	a := testAgent(AgentConfig{Registry: reg, Queue: 1})
	a.RegisterMetrics(reg)
	// No publisher goroutine running: the queue fills at 1.
	a.Flush(time.Unix(1, 0))
	a.Flush(time.Unix(2, 0))
	a.Flush(time.Unix(3, 0))
	if got := a.Sheds(); got != 2 {
		t.Errorf("sheds = %d, want 2", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["telemetry.sheds"] != 2 {
		t.Errorf("telemetry.sheds = %d, want 2", snap.Counters["telemetry.sheds"])
	}
}

func TestAgentShedsOnPublishError(t *testing.T) {
	cb := &captureBus{err: errTest}
	a := testAgent(AgentConfig{Bus: cb})
	a.publish(a.collect(time.Unix(1, 0)))
	if a.Sheds() != 1 || a.ReportsSent() != 0 {
		t.Errorf("sheds=%d sent=%d, want 1/0 on publish error", a.Sheds(), a.ReportsSent())
	}
}

var errTest = errTestType{}

type errTestType struct{}

func (errTestType) Error() string { return "publish refused" }

func TestAgentTrimsOversizedReports(t *testing.T) {
	tb := NewTraceBuffer(4096)
	for i := 0; i < 2000; i++ {
		tb.Record(HopRecord{TraceID: uint64(i), Chain: "c", Node: "node-with-a-long-name", ArriveNs: int64(i), DepartNs: int64(i + 1)})
	}
	cb := &captureBus{}
	a := testAgent(AgentConfig{Bus: cb, Traces: tb, MaxReportBytes: 8 << 10, MaxHops: 4096})
	r := a.collect(time.Unix(1, 0))
	if len(r.Hops) != 2000 {
		t.Fatalf("staged hops = %d, want 2000", len(r.Hops))
	}
	size := a.sizeAndTrim(r)
	if size > 8<<10 {
		t.Errorf("trimmed size = %d, want ≤ %d", size, 8<<10)
	}
	if len(r.Hops) >= 2000 {
		t.Error("trim did not drop any hops")
	}
	// Trim keeps the newest records.
	if last := r.Hops[len(r.Hops)-1]; last.TraceID != 1999 {
		t.Errorf("newest hop lost in trim: last trace = %d", last.TraceID)
	}
}

// TestAgentTrimConvergesOnUntrimmableBase pins the pathological case:
// the untrimmable base sections (counters) alone exceed MaxReportBytes
// while a single hop and alert remain. Ceil-halving must empty the
// variable sections and return instead of busy-looping forever on a
// report that can never fit.
func TestAgentTrimConvergesOnUntrimmableBase(t *testing.T) {
	reg := metrics.NewRegistry()
	for i := 0; i < 64; i++ {
		reg.Counter("very.long.untrimmable.counter.name." + strings.Repeat("x", i+1)).Inc()
	}
	a := testAgent(AgentConfig{Registry: reg, MaxReportBytes: 512})
	r := a.collect(time.Unix(1, 0))
	r.Hops = []HopRecord{{TraceID: 1, Chain: "c", Node: "n", ArriveNs: 1}}
	r.Alerts = []slo.Alert{{Chain: "c", FiredAt: time.Unix(1, 0)}}
	r.Spans = []obs.Span{{ID: 1, Name: "s"}}
	r.Events = []obs.Event{{Name: "e", AtNs: 1}}

	size := a.sizeAndTrim(r)
	if size <= 512 {
		t.Fatalf("base sections fit in %d bytes; test needs an untrimmable base > cap", size)
	}
	if len(r.Hops) != 0 || len(r.Alerts) != 0 || len(r.Spans) != 0 || len(r.Events) != 0 {
		t.Errorf("variable sections not emptied: %d hops %d alerts %d spans %d events",
			len(r.Hops), len(r.Alerts), len(r.Spans), len(r.Events))
	}
}

// TestAgentStampsBootEpoch pins the restart signal: every report from
// one agent carries the same non-zero epoch (its first capture
// instant), so the aggregator can tell a restarted agent's Seq=1 apart
// from a replayed delivery.
func TestAgentStampsBootEpoch(t *testing.T) {
	a := testAgent(AgentConfig{})
	r1 := a.collect(time.Unix(100, 0))
	r2 := a.collect(time.Unix(200, 0))
	if r1.Epoch == 0 {
		t.Fatal("first report has no boot epoch")
	}
	if r2.Epoch != r1.Epoch {
		t.Errorf("epoch drifted within one boot: %d then %d", r1.Epoch, r2.Epoch)
	}
	restarted := testAgent(AgentConfig{})
	r3 := restarted.collect(time.Unix(300, 0))
	if r3.Epoch <= r1.Epoch {
		t.Errorf("restarted agent epoch %d not newer than %d", r3.Epoch, r1.Epoch)
	}
}

func TestAgentStartPacesAndStops(t *testing.T) {
	reg := metrics.NewRegistry()
	c := reg.Counter("x")
	cb := &captureBus{}
	a := testAgent(AgentConfig{Registry: reg, Bus: cb, Interval: 5 * time.Millisecond})
	stop := a.Start()
	deadline := time.Now().Add(2 * time.Second)
	for a.ReportsSent() < 3 {
		c.Inc()
		if time.Now().After(deadline) {
			t.Fatalf("agent sent %d reports in 2s, want ≥ 3", a.ReportsSent())
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	stop() // idempotent
	pubs := cb.published()
	if len(pubs) < 3 {
		t.Fatalf("published = %d, want ≥ 3", len(pubs))
	}
	for i := 1; i < len(pubs); i++ {
		if pubs[i].Seq <= pubs[i-1].Seq {
			t.Errorf("seq not increasing: %d then %d", pubs[i-1].Seq, pubs[i].Seq)
		}
	}
}
