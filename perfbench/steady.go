package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steadyMain runs each workload runs times as separate processes, with
// seeds first..first+runs-1, and prints every metric's median, quartiles,
// extremes and quartile spread as a share of the median: the figures the
// bounds in BENCHMARK.json are set from and later re-checked against.
func steadyMain(only string, runs int, first uint64, seconds int, trace bool) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := workloadNames()
	if only != "" {
		names = []string{only}
	}
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	status := 0
	for _, name := range names {
		values := map[string][]float64{}
		var attempted, failed uint64
		for seed := first; seed < first+uint64(runs); seed++ {
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatUint(seed, 10),
				"--seconds", strconv.Itoa(seconds), "--trace", traceArg)
			cmd.Stderr = os.Stderr
			outb, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(outb)), "\n")
			var res result
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil || jerr != nil || !res.Correct {
				fmt.Printf("%s seed %d: run failed (%v)\n", name, seed, err)
				status = 1
				continue
			}
			attempted += res.Attempted
			failed += res.Failed
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
		}
		fmt.Printf("\n%s: %d runs of %d s from seed %d, failed %d of %d attempted ops\n", name, runs, seconds, first, failed, attempted)
		fmt.Printf("  %-36s %12s %12s %12s %12s %12s %8s\n", "metric", "median", "q1", "q3", "min", "max", "iqr/med")
		keys := make([]string, 0, len(values))
		for k := range values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var buf bytes.Buffer
		for _, k := range keys {
			q1, med, q3, lo, hi := quartiles(values[k])
			fmt.Fprintf(&buf, "  %-36s %12.4f %12.4f %12.4f %12.4f %12.4f %8.4f\n", k, med, q1, q3, lo, hi, ratio(q3-q1, med))
		}
		fmt.Print(buf.String())
	}
	return status
}
