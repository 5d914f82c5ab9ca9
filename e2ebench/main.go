// Command e2ebench is the end-to-end benchmark of the deployed stcps
// pipeline: a wireclient producer over a loopback TCP socket into
// frame.ServeConn, through the engine's WAL, detectors, store, cold
// tier and subscriptions, with QueryST readers beside it, or into an
// in-process three-node cluster. Each workload is declared in
// workloads/<name>.properties. Every run checks its outputs against an
// independent oracle and prints one JSON result line last.
//
//	bash e2ebench/run.sh --workload ingest-steady --seed 1 --seconds 10 --trace 0
//
// See BENCH.md for the metrics and how to read a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	tmp      string
	spans    string
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload runner hands back.
type outcome struct {
	attempted, failed uint64
	mismatches        []string
	digest            string
	values            map[string]float64
	samples           map[string]int // sample counts behind the latencies
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name ("+strings.Join(workloadNames(), ", ")+")")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "measurement window in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	fs.StringVar(&o.tmp, "tmp", os.TempDir(), "directory for WAL and segment files")
	fs.StringVar(&o.spans, "spans", "", "traced runs: also write every span as JSON lines to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, err := loadWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: -seconds must be at least 1")
		return 2
	}
	if o.trace {
		// A traced run measures an untraced phase (Stats counters,
		// CPU baseline) and a traced phase, half the window each.
		o.seconds = max(1, o.seconds/2)
	}
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	printConfig(w, o)

	var out *outcome
	if w.Int("nodes", 1) > 1 {
		out, err = runCluster(w, o)
	} else {
		out, err = runSingle(w, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Printf("digest %s seed %d: %s\n", w.Name, o.seed, out.digest)
	for _, k := range sortedKeys(out.samples) {
		fmt.Printf("samples %s: %d\n", k, out.samples[k])
	}
	res := result{Correct: len(out.mismatches) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	for _, m := range names {
		res.Metrics[m.name] = metricValue{Value: out.values[m.name], Unit: m.unit}
	}
	for _, m := range out.mismatches {
		fmt.Fprintln(os.Stderr, "e2ebench: MISMATCH:", m)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// printConfig prints the run's reproduction block: toolchain,
// parallelism, fsync policy, the temp directory's filesystem, and the
// workload declaration.
func printConfig(w *Workload, o options) {
	fmt.Printf("config go=%s goos=%s goarch=%s GOMAXPROCS=%d nproc=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Printf("config workload=%s seed=%d seconds=%d warm=%s trace=%v\n",
		w.Name, o.seed, o.seconds, warmup, o.trace)
	fmt.Printf("config fsync=%s tmp=%s fs=%s\n", w.Str("fsync", "none"), o.tmp, fsType(o.tmp))
	for _, k := range w.Keys() {
		fmt.Printf("config %s.%s = %s\n", w.Name, k, w.Str(k, ""))
	}
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	abs, _ := filepath.Abs(dir)
	if err := syscall.Statfs(abs, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// warmup precedes every measurement window; subBuffer is every
// subscription's ring capacity, large enough that no workload drops.
const (
	warmup    = time.Second
	subBuffer = 1 << 14
)

// errInvalid marks a run whose own validity checks failed (a paced
// generator that fell behind, a growing backlog, traced spans that do
// not account for the layers' work): it is never reported as a
// measurement.
var errInvalid = errors.New("invalid run")
