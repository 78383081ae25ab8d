// Command perfbench is the repository benchmark: it runs one named
// workload for a fixed time, checks the program's outputs, and prints the
// end-to-end metrics (or, with --trace 1, the per-layer metrics) as one
// JSON object on the last line of standard output.
//
//	python3 perfbench/run.py --workload comfort-campaign --seed 1 --seconds 20 --trace 0
//
// run.py builds this package inside the checkout and runs it from the
// repository root with the same flags; see README.md for the workloads
// and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// workDir, relative to the checkout root the benchmark runs from, holds
// the stores, checkpoints and span dumps of a run.
const workDir = ".bench_build/work"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations and explains each failure on stderr.
type tally struct{ attempted, failed int }

func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

func main() {
	workload := flag.String("workload", "", "workload name: "+workloadList())
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints per-layer metrics")
	setupChild := flag.Bool("setup-child", false, "internal: time one set-up in this process and exit")
	flag.Parse()

	if !knownWorkload(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, workloadList())
		os.Exit(2)
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if *setupChild {
		s, err := setupOnce(*workload, workDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(s)
		return
	}

	var (
		rep report
		err error
	)
	if *trace == 1 {
		rep, err = runTraced(*workload, *seed, *seconds, workDir)
	} else {
		rep, err = runMeasured(*workload, *seed, *seconds, workDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable renders the metrics for a human reader, one per line, with
// the error rate the result line carries as failed/attempted.
func printTable(rep report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-28s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("%-28s %14.6g ratio (%d/%d)\n", "error_rate",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Failed, rep.Attempted)
}
