// Command perfbench stands up a Switchboard deployment in-process — the
// Global and Local Switchboards, the bus, the VNF controllers and the
// simulated network — drives one workload through public calls, checks
// the program's outputs and prints its metrics. See README.md.
//
//	perfbench --workload chain_light --seed 1 --seconds 10 --trace 0
//	perfbench repeat --workload chain_light --runs 10 --seconds 10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// The workloads. Each run measures a fixed number of operations,
// opsPerSecond × --seconds. On the 2-vCPU host the README's figures come
// from, --seconds 10 measures for 7–12 s on the chain workloads and
// 16–20 s on admission_churn, whose tail latency needs the longer run.
var (
	chainLight  = chainWorkload{flows: 16, window: 1, opsPerSecond: 10000, warm: 4000}
	chainLoaded = chainWorkload{flows: 32768, window: 256, opsPerSecond: 40000, warm: 2 * 32768}
	churn       = churnWorkload{opsPerSecond: 300, warm: 50}
)

// procs is the benchmark's GOMAXPROCS. With one P the process's CPU time
// per operation does not depend on how the host schedules a second vCPU:
// no goroutine hand-off crosses processors and no idle P spins looking
// for work, so a host that steals a varying share of its CPUs moves
// wall-clock figures but not ops_per_core_s. It is the per-core figure
// the paper reports for its forwarder.
const procs = 1

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run measured.
type report struct {
	attempted int
	faults    int // chain setups whose data path never became usable
	setup     time.Duration
	// ph is the measured phase: all of it in an untraced run, its
	// untraced first half in a traced run; layerPh is the traced half.
	ph, layerPh  *phase
	msgs0, msgs1 uint64 // network messages at ph's start and end
	lat          []int64
	liveHeap     uint64

	tr                       *tracer
	layerMsgs0, layerMsgs1   uint64
	layerSends0, layerSends1 uint64
	pktsPerMsg               float64
	replay                   replayResult
	layers                   map[string]metric
	notes                    []string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "repeat" {
		os.Exit(repeatMain(os.Args[2:]))
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: chain_light, chain_loaded or admission_churn")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the workload's inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "scales the measured operation count; about the measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)

	var res *report
	var err error
	switch cfg.workload {
	case "chain_light":
		res, err = runChain(chainLight, cfg)
	case "chain_loaded":
		res, err = runChain(chainLoaded, cfg)
	case "admission_churn":
		res, err = runChurn(churn, cfg)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; one of chain_light, chain_loaded, admission_churn\n", cfg.workload)
		os.Exit(2)
	}
	if res == nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printContext(cfg, res, err)
	out := result{Correct: err == nil, Attempted: res.attempted}
	if err == nil {
		if cfg.trace {
			out.Metrics = layerMetrics(res)
		} else {
			out.Metrics = endToEnd(res)
		}
	}
	line, jerr := json.Marshal(out)
	if jerr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", jerr)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if err != nil {
		os.Exit(1)
	}
}

// measuredOps is the number of operations in ph.
func (r *report) measuredOps() int {
	if r.layerPh != nil {
		return r.attempted / 2
	}
	return r.attempted
}

// endToEnd computes the end-to-end metrics of an untraced run.
func endToEnd(r *report) map[string]metric {
	ops := float64(r.attempted)
	return map[string]metric{
		"ops_per_core_s":     {ops / r.ph.cpu().Seconds(), "ops/core-s"},
		"latency_p50_us":     {float64(percentile(r.lat, 50)) / 1e3, "us"},
		"latency_p75_us":     {float64(percentile(r.lat, 75)) / 1e3, "us"},
		"alloc_bytes_per_op": {float64(r.ph.allocated()) / ops, "B/op"},
		"msgs_per_op":        {float64(r.msgs1-r.msgs0) / ops, "msgs/op"},
		"live_heap_mib":      {float64(r.liveHeap) / (1 << 20), "MiB"},
		"setup_s":            {r.setup.Seconds(), "s"},
	}
}

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(r *report) map[string]metric {
	t := r.tr
	traced := float64(r.attempted - r.measuredOps())
	untracedCPU := r.ph.cpu().Seconds() / float64(r.measuredOps())
	tracedCPU := r.layerPh.cpu().Seconds() / traced
	solvesPerAdmission := 0.0
	if c := t.count[layerCreate].Load(); c > 0 {
		solvesPerAdmission = float64(t.count[layerSolve].Load()) / float64(c)
	}
	m := map[string]metric{
		"forwarder.process_ns_per_pkt":    {r.replay.fwdNsPerPkt, "ns/pkt"},
		"forwarder.alloc_bytes_per_burst": {r.replay.fwdAllocPerBurst, "B/burst"},
		"dht.lookup_ns":                   {r.replay.dhtLookupNs, "ns"},
		"flowtable.lookup_ns_per_pkt":     {r.replay.ftNsPerPkt, "ns/pkt"},
		"edge.handle_ns_per_pkt":          {r.replay.edgeNsPerPkt, "ns/pkt"},
		"simnet.send_recv_ns_per_msg":     {r.replay.simnetNsPerMsg, "ns/msg"},
		"simnet.pkts_per_msg":             {r.pktsPerMsg, "pkts/msg"},
		"vnf.firewall.process_ns":         {t.meanUs(layerFirewall) * 1e3, "ns"},
		"vnf.nat.process_ns":              {t.meanUs(layerNAT) * 1e3, "ns"},
		"runtime.gc_cpu_share":            {r.layerPh.gcShare(), "share"},
		"runtime.sched_latency_p50_us":    {r.layerPh.schedP50 * 1e6, "us"},
		"controller.pre_solve_us":         {t.meanUs(layerPreSolve), "us"},
		"controller.commit_publish_us":    {t.meanUs(layerCommitPublish), "us"},
		"controller.ready_wait_us":        {t.meanUs(layerReadyWait), "us"},
		"controller.delete_chain_us":      {t.meanUs(layerDelete), "us"},
		"te.solve_us":                     {t.meanUs(layerSolve), "us"},
		"te.solves_per_op":                {solvesPerAdmission, "solves/op"},
		"bus.route_records_per_op":        {0, "records/op"},
		"bus.wan_msgs_per_op":             {0, "msgs/op"},
		"trace.cpu_overhead":              {tracedCPU/untracedCPU - 1, "share"},
	}
	for k, v := range r.layers {
		m[k] = v
	}
	return m
}

// printContext prints the run's context and reference lines. They
// precede the result line and start with "#".
func printContext(cfg config, r *report, runErr error) {
	rev, modified := "unknown (not built from a git checkout)", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				modified = " (modified)"
			}
		}
	}
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d mode=%s\n", cfg.workload, cfg.seed, cfg.seconds, mode)
	fmt.Printf("# host: GOMAXPROCS=%d cpus=%d cpu=%q go=%s git=%s%s\n",
		procs, runtime.NumCPU(), cpuModel(), runtime.Version(), rev, modified)
	ops := r.measuredOps()
	fmt.Printf("# operations: attempted=%d failed=0 measured=%d\n", r.attempted, ops)
	if r.ph != nil && !r.ph.wall1.IsZero() {
		steal := "unreadable"
		if s := r.ph.steal(); s >= 0 {
			steal = fmt.Sprintf("%.1f%%", 100*s)
		}
		fmt.Printf("# measured phase: wall=%.3fs cpu=%.3fs steal=%s (host, /proc/stat)\n",
			r.ph.wall().Seconds(), r.ph.cpu().Seconds(), steal)
		fmt.Printf("# reference (not a metric): wall-clock ops/s=%.1f\n", float64(ops)/r.ph.wall().Seconds())
		if len(r.lat) > 0 && !cfg.trace {
			fmt.Printf("# reference (not a metric): latency p90=%.1fus p99=%.1fus over %d samples\n",
				float64(percentile(r.lat, 90))/1e3, float64(percentile(r.lat, 99))/1e3, len(r.lat))
		}
	}
	if r.faults > 0 {
		fmt.Printf("# chain setups whose data path never became usable (deleted and created again): %d\n", r.faults)
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	if cfg.trace && runErr == nil {
		fmt.Printf("# traced half: %d operations; overhead against the untraced half is trace.cpu_overhead\n", r.attempted-ops)
		r.tr.printSelfTimes(os.Stdout)
		if path, err := r.tr.writeSpans(cfg.workload); err != nil {
			fmt.Printf("# spans not written: %v\n", err)
		} else {
			fmt.Printf("# spans: %s (%d recorded, at most %d kept)\n", path, r.tr.n.Load(), maxSpans)
		}
	}
	if runErr != nil {
		fmt.Println("# CHECK FAILED:", runErr)
	}
}
