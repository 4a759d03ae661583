package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"switchboard/internal/packet"
	"switchboard/internal/vnf"
)

// layer names a span kind. Spans are recorded only by the benchmark's
// own code around its calls into the program's public functions.
type layer uint8

const (
	layerOp            layer = iota // one operation: a round trip or a churn step
	layerFirewall                   // vnf.Function.Process of the firewall
	layerNAT                        // vnf.Function.Process of the NAT
	layerDelete                     // GlobalSwitchboard.DeleteChain
	layerCleanupWait                // DeleteChain return until no forwarder holds the rule
	layerCreate                     // GlobalSwitchboard.CreateChain
	layerPreSolve                   // CreateChain entry to Router entry
	layerSolve                      // te.SolveDP inside the Router hook
	layerCommitPublish              // last Router return to CreateChain return
	layerReadyWait                  // CreateChain return to the last rule install
	numLayers
)

var layerNames = [numLayers]string{
	"op", "vnf.firewall", "vnf.nat", "controller.delete_chain", "controller.cleanup_wait",
	"controller.create_chain", "controller.pre_solve", "te.solve", "controller.commit_publish",
	"controller.ready_wait",
}

// layerParent is each layer's parent in the span tree; a layer's self
// time is its time minus that of its children.
var layerParent = [numLayers]layer{
	layerOp, layerOp, layerOp, layerOp, layerOp, layerOp, layerCreate, layerCreate, layerCreate, layerOp,
}

// span is one timed interval in Unix nanoseconds. op is the operation's
// id (a request's sequence number, or a churn step's index); the parent
// is the op's span of layer parent.
type span struct {
	start, end int64
	op         uint64
	layer      layer
}

// maxSpans bounds the spans kept for the trace file; per-layer sums
// and counts cover every span, kept or not.
const maxSpans = 1 << 17

// tracer collects spans in memory while it is on. A nil *tracer is the
// untraced run: every method is a no-op apart from reading the clock.
type tracer struct {
	on    atomic.Bool
	spans []span
	n     atomic.Int64
	sum   [numLayers]atomic.Int64
	count [numLayers]atomic.Int64
	// inOps is set while the traced operations run; opSum totals only
	// the spans recorded then, so self times leave out set-up, teardown
	// and probe spans that belong to no operation.
	inOps atomic.Bool
	opSum [numLayers]atomic.Int64

	// Router-hook state. CreateChain runs the hook on the calling
	// goroutine, and one goroutine admits chains, so plain fields do.
	op                       uint64
	solves                   int
	firstSolveAt, solveStart int64
	lastSolveEnd             int64
}

func newTracer() *tracer { return &tracer{spans: make([]span, maxSpans)} }

func now() int64 { return time.Now().UnixNano() }

// enable turns span recording on or off.
func (t *tracer) enable(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

// measureOps turns span recording on or off and marks the spans as
// belonging to the traced operations.
func (t *tracer) measureOps(on bool) {
	if t != nil {
		t.inOps.Store(on)
		t.on.Store(on)
	}
}

func (t *tracer) record(l layer, op uint64, start, end int64) {
	if t == nil || !t.on.Load() {
		return
	}
	t.sum[l].Add(end - start)
	t.count[l].Add(1)
	if t.inOps.Load() {
		t.opSum[l].Add(end - start)
	}
	if i := t.n.Add(1) - 1; i < maxSpans {
		t.spans[i] = span{start: start, end: end, op: op, layer: l}
	}
}

// meanUs is a layer's mean span duration in microseconds.
func (t *tracer) meanUs(l layer) float64 {
	c := t.count[l].Load()
	if c == 0 {
		return 0
	}
	return float64(t.sum[l].Load()) / float64(c) / 1e3
}

// beginCreate marks a CreateChain call for operation op and returns its
// start.
func (t *tracer) beginCreate(op uint64) int64 {
	if t != nil {
		t.op, t.solves = op, 0
	}
	return now()
}

// endCreate marks CreateChain's return, records the create span and its
// pre-solve and commit-publish parts, and returns the return instant.
func (t *tracer) endCreate(op uint64, start int64) int64 {
	end := now()
	if t == nil || t.solves == 0 {
		return end
	}
	t.record(layerCreate, op, start, end)
	t.record(layerPreSolve, op, start, t.firstSolveAt)
	t.record(layerCommitPublish, op, t.lastSolveEnd, end)
	return end
}

// solveEnter and solveExit bracket te.SolveDP in the Router hook.
func (t *tracer) solveEnter() {
	t.solveStart = now()
	t.solves++
	if t.solves == 1 {
		t.firstSolveAt = t.solveStart
	}
}

func (t *tracer) solveExit() {
	t.lastSolveEnd = now()
	t.record(layerSolve, t.op, t.solveStart, t.lastSolveEnd)
}

// wrapVNF times a VNF's Process calls in the traced run; the untraced
// run deploys the function itself.
func (t *tracer) wrapVNF(l layer, fn vnf.Function) vnf.Function {
	if t == nil {
		return fn
	}
	return &timedVNF{fn: fn, t: t, l: l}
}

type timedVNF struct {
	fn vnf.Function
	t  *tracer
	l  layer
}

func (v *timedVNF) Name() string { return v.fn.Name() }

func (v *timedVNF) Process(p *packet.Packet) bool {
	if !v.t.on.Load() {
		return v.fn.Process(p)
	}
	start := now()
	ok := v.fn.Process(p)
	var op uint64
	if len(p.Payload) >= 8 {
		op = binary.BigEndian.Uint64(p.Payload)
	}
	v.t.record(v.l, op, start, now())
	return ok
}

// selfTimes returns each layer's total self time in nanoseconds within
// the traced operations: its spans' total minus its children's.
func (t *tracer) selfTimes() [numLayers]int64 {
	var self [numLayers]int64
	for l := layer(0); l < numLayers; l++ {
		self[l] = t.opSum[l].Load()
	}
	for l := layer(1); l < numLayers; l++ {
		self[layerParent[l]] -= t.opSum[l].Load()
	}
	return self
}

// printSelfTimes writes, for each layer that recorded spans, their
// count and mean duration, and its self time per operation with its
// share of the operations' total time.
func (t *tracer) printSelfTimes(w io.Writer) {
	ops := t.count[layerOp].Load()
	total := t.opSum[layerOp].Load()
	if ops == 0 || total == 0 {
		return
	}
	self := t.selfTimes()
	fmt.Fprintf(w, "# %-26s %9s %12s %14s %7s\n", "span", "count", "mean us", "self us/op", "share")
	for l := layer(0); l < numLayers; l++ {
		n := t.count[l].Load()
		if n == 0 {
			continue
		}
		fmt.Fprintf(w, "# %-26s %9d %12.2f %14.2f %6.1f%%\n", layerNames[l], n, t.meanUs(l),
			float64(self[l])/float64(ops)/1e3, 100*float64(self[l])/float64(total))
	}
}

// traceDir holds the traced runs' span files, relative to the
// directory the benchmark runs from.
const traceDir = "perfbench-traces"

// writeSpans writes the kept spans as JSON lines to
// perfbench-traces/<workload>.jsonl and returns the file's path.
func (t *tracer) writeSpans(workload string) (string, error) {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(traceDir, workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := min(t.n.Load(), maxSpans)
	for _, s := range t.spans[:n] {
		line := struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Op     uint64 `json:"op"`
			Parent string `json:"parent"`
		}{layerNames[s.layer], s.start, s.end, s.op, ""}
		if s.layer != layerOp {
			line.Parent = layerNames[layerParent[s.layer]]
		}
		if err := enc.Encode(line); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
