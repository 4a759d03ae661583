package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// repeatMain runs one workload several times, each run a separate
// process with its own seed, and prints the median and quartiles of
// every metric with the spread (q3 - q1) / median. The quartiles are
// those of Python's statistics.quantiles(values, n=4).
func repeatMain(args []string) int {
	fs := flag.NewFlagSet("repeat", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	seed0 := fs.Int64("seed", 1, "seed of the first run; run i uses seed+i")
	seconds := fs.Int("seconds", 10, "passed to every run")
	trace := fs.Int("trace", 0, "passed to every run")
	_ = fs.Parse(args)
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "perfbench repeat: --runs must be positive")
		return 2
	}
	values := make(map[string][]float64)
	units := make(map[string]string)
	for i := 0; i < *runs; i++ {
		seed := *seed0 + int64(i)
		cmd := exec.Command(os.Args[0], "--workload", *workload, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(*seconds), "--trace", strconv.Itoa(*trace))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		res, perr := lastResult(out)
		if err != nil || perr != nil || !res.Correct {
			os.Stdout.Write(out)
			fmt.Fprintf(os.Stderr, "perfbench repeat: run with seed %d failed: %v %v\n", seed, err, perr)
			return 1
		}
		fmt.Printf("run %2d seed %d: attempted=%d failed=%d (%.4f)%s\n", i+1, seed, res.Attempted, res.Failed,
			float64(res.Failed)/float64(res.Attempted), steal(out))
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
	}
	fmt.Printf("%-34s %-12s %14s %14s %14s %8s\n", "metric", "unit", "q1", "median", "q3", "spread")
	for _, name := range sortedKeys(values) {
		v := values[name]
		q1, med, q3 := quartiles(v)
		spread := 0.0
		if med != 0 {
			spread = (q3 - q1) / med
		}
		fmt.Printf("%-34s %-12s %14.4f %14.4f %14.4f %8.4f\n", name, units[name], q1, med, q3, spread)
	}
	fmt.Println("values by run:")
	for _, name := range sortedKeys(values) {
		fmt.Printf("%-34s", name)
		for _, x := range values[name] {
			fmt.Printf(" %.4g", x)
		}
		fmt.Println()
	}
	return 0
}

// lastResult parses the final line of a run's output.
func lastResult(out []byte) (result, error) {
	var res result
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) == 0 || len(lines[len(lines)-1]) == 0 {
		return res, errNoResult
	}
	return res, json.Unmarshal(lines[len(lines)-1], &res)
}

// steal extracts the steal share a run printed, for the run's line.
func steal(out []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if _, after, ok := strings.Cut(sc.Text(), " steal="); ok {
			s, _, _ := strings.Cut(after, " ")
			return " steal=" + s
		}
	}
	return ""
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(data, n=4) with its default exclusive method.
func quartiles(data []float64) (q1, q2, q3 float64) {
	d := append([]float64(nil), data...)
	sort.Float64s(d)
	if len(d) == 1 {
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	cut := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		return (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

var errNoResult = errors.New("no result line")

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
