// Command wlpadbench is the wlpad benchmark. It drives the daemon's
// HTTP handler in-process, in closed loops (each client waits for its
// reply, as the IDE and CI callers do), over the 13 suite programs:
//
//	cold_batch    one client; each op is a POST /analyze with
//	              diagnostics of a program the daemon has never seen
//	edit_session  one client; each op is one save step: the next
//	              one-statement edit of an open file, then a hover
//	              POST /query of the edited sources
//	query_read    one client; each op is a GET /query of a warm entry
//
// Usage, from the repository root (wlpadbench/run.sh builds and runs it):
//
//	wlpadbench --workload NAME --seed N --seconds S --trace 0|1
//
// The seed picks order, edits and query sites, never program text. S
// fixes the op count at a nominal rate, so every run of a seed does the
// same work. The last line of standard output is the JSON result; the
// lines before it are for people. --trace 0 reports the end-to-end
// metrics; --trace 1 also replays the schedule through a traced replica
// of the handler's pipeline and reports the per-layer metrics.
//
// Every measurement runs in a fresh child process fed the prepared
// inputs on standard input. The parent computes the references with
// the library, and the library's allocation slabs are shared between
// analyses, so a dead analysis can stay reachable through a live one's
// slab: in one process, reference runs and earlier set-ups left 30 to
// 200 MB of such heap behind and moved both retained_mb and GC cost.
package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times a run sets up a daemon: setup_s is their
// median.
const setupReps = 5

// runBudget bounds a whole run, children included.
const runBudget = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spansDir string
}

func main() {
	var cfg config
	var trace int
	var child string
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: order, edits and query sites")
	flag.IntVar(&cfg.seconds, "seconds", 16, "nominal length of the timed phase; fixes the op count")
	flag.IntVar(&trace, "trace", 0, "1 adds the traced run and reports per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans-dir", "", "directory the traced run writes its span log to (empty: not written)")
	flag.StringVar(&child, "child", "", "run one measuring phase (setup, timed or traced) on inputs read from standard input")
	flag.Parse()
	cfg.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || cfg.seconds < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if child != "" {
		if cfg.workload == queryRead {
			// One client runs GETs of about 10 us. With a second P the
			// runtime spread over both vCPUs, and on a shared 2-vCPU VM
			// GET latency turned bimodal (bursts at 6.5 us among 11 us)
			// and followed the other vCPU's contention: in interleaved
			// runs the spread of ops_per_s, p50_ms and tail_ms was
			// 0.28, 0.12 and 0.38 with two Ps and 0.06, 0.05 and 0.04
			// with one. The collector shares the client's P.
			runtime.GOMAXPROCS(1)
		}
		if err := childMain(child, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "wlpadbench child:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlpadbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlpadbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func (c config) deadline() time.Duration { return 3 * time.Duration(c.seconds) * time.Second }

// childMain runs one measuring phase and writes its result, gob-encoded,
// to standard output.
func childMain(mode string, cfg config) error {
	var in Inputs
	if err := gob.NewDecoder(os.Stdin).Decode(&in); err != nil {
		return err
	}
	var out any
	var err error
	switch mode {
	case "setup":
		_, out, err = measuredSetUp(&in)
	case "timed":
		out, err = timedChild(&in, cfg.deadline(), cfg.trace)
	case "traced":
		spans := ""
		if cfg.spansDir != "" {
			spans = filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-%d.tsv", cfg.workload, cfg.seed))
		}
		out, err = tracedChild(&in, cfg.deadline(), spans)
	default:
		err = fmt.Errorf("unknown phase %q", mode)
	}
	if err != nil {
		return err
	}
	return gob.NewEncoder(os.Stdout).Encode(out)
}

// runChild runs one phase in a fresh process and decodes its result.
// The child is killed if ctx ends first; either way it has exited when
// runChild returns.
func runChild(ctx context.Context, mode string, cfg config, payload []byte, out any) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, exe, "--child", mode, "--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10), "--seconds", strconv.Itoa(cfg.seconds),
		"--trace", trace, "--spans-dir", cfg.spansDir)
	cmd.Stdin = bytes.NewReader(payload)
	cmd.Stderr = os.Stderr
	data, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("%s phase: %w", mode, err)
	}
	return gob.NewDecoder(bytes.NewReader(data)).Decode(out)
}

// run executes one benchmark run and returns its result line; the
// human-readable report goes to out.
func run(cfg config, out io.Writer) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	in, err := buildInputs(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(in); err != nil {
		return nil, err
	}

	var timed TimedResult
	if err := runChild(ctx, "timed", cfg, payload.Bytes(), &timed); err != nil {
		return nil, err
	}
	setups := []SetupResult{timed.Setup}
	for len(setups) < setupReps {
		var s SetupResult
		if err := runChild(ctx, "setup", cfg, payload.Bytes(), &s); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	p := timed.Phase
	runErrs := append([]string(nil), timed.RunErrors...)
	if in.Workload == coldBatch {
		runErrs = append(runErrs, saltedSpotChecks(in, cfg.seed)...)
	}
	if p.Truncated {
		runErrs = append(runErrs, fmt.Sprintf("deadline %v reached after %d ops", cfg.deadline(), p.ops()))
	}
	e2e, err := endToEnd(&timed, setups)
	if err != nil {
		return nil, err
	}
	res := &result{Attempted: p.ops(), Failed: p.Failed, Metrics: e2e}
	fmt.Fprintf(out, "wlpadbench %s seed %d: %d ops by %d client(s) in %.2f s, %d failed\n",
		in.Workload, cfg.seed, p.ops(), in.Clients, float64(p.WallNS)/1e9, p.Failed)
	// fail_ratio is 0 on a correct program, and the result line's
	// metrics must be nonzero, so it travels there as failed/attempted.
	printMetrics(out, e2e)
	fmt.Fprintf(out, "  %-32s %14.6g %s\n", "fail_ratio", float64(p.Failed)/float64(p.ops()), "ratio")
	lat := latencies(p)
	ms, pct, beyond, _ := tail(lat)
	setupS, kept := splitSetups(setups)
	fmt.Fprintf(out, "  tail_ms is p%g = %.4g ms, %d of %d samples beyond it; setup_s is the median of %d set-ups %v\n",
		pct, ms, beyond, len(lat), setupReps, roundAll(setupS))
	fmt.Fprintf(out, "  retained_mb is the median of the same set-ups' live heap once warm, less %.1f MB of inputs, %v MB\n",
		float64(timed.Setup.Base)/1e6, roundAll(kept))
	fmt.Fprintf(out, "  in the timed phase the live heap read %.1f MB at the median of %d collections and %.1f MB after a forced collection at its end\n",
		phaseLiveMB(&timed), len(p.GCLive), (float64(timed.LiveEnd)-float64(timed.Setup.Base))/1e6)
	printClasses(out, in, p)

	if cfg.trace {
		var tr TracedResult
		if err := runChild(ctx, "traced", cfg, payload.Bytes(), &tr); err != nil {
			return nil, err
		}
		res.Metrics = layerMetrics(&timed, &tr)
		printLayers(out, &timed, &tr, res.Metrics)
		res.Attempted += tr.Agg.Ops
		res.Failed += tr.Failed
		runErrs = append(runErrs, tr.Errors...)
	}
	for _, e := range append(p.Errors, runErrs...) {
		fmt.Fprintln(out, "  FAIL:", e)
	}
	res.Correct = res.Failed == 0 && len(runErrs) == 0
	return res, nil
}

func latencies(p *Phase) []time.Duration {
	var out []time.Duration
	for _, l := range p.Lat {
		for _, ns := range l {
			out = append(out, time.Duration(ns))
		}
	}
	return out
}

// endToEnd derives the end-to-end metrics of the untraced run.
func endToEnd(t *TimedResult, setups []SetupResult) (map[string]metric, error) {
	p := t.Phase
	lat := latencies(p)
	tailMS, _, _, ok := tail(lat)
	if !ok {
		return nil, fmt.Errorf("%d ops are too few for the tail rule; raise --seconds", len(lat))
	}
	setupS, kept := splitSetups(setups)
	return map[string]metric{
		"setup_s":         {median(setupS), "s"},
		"ops_per_s":       {float64(len(lat)) / (float64(p.WallNS) / 1e9), "1/s"},
		"p50_ms":          {median(sortedMS(lat)), "ms"},
		"tail_ms":         {tailMS, "ms"},
		"alloc_mb_per_op": {float64(p.Allocs) / float64(len(lat)) / 1e6, "MB"},
		"retained_mb":     {median(kept), "MB"},
	}, nil
}

// splitSetups returns the set-ups' times and retained heaps.
func splitSetups(setups []SetupResult) (seconds, retainedMB []float64) {
	for _, s := range setups {
		seconds = append(seconds, s.S)
		retainedMB = append(retainedMB, s.retainedMB())
	}
	return seconds, retainedMB
}

// phaseLiveMB is the median live heap over the timed phase's
// collections, less the inputs. It counts in-flight work and dead
// analyses the library's shared allocation slabs keep reachable from
// live ones: such chains grow over several collections and drop when
// one breaks (85 to 380 MB within one cold_batch run, and once 68 to
// 778 MB), so it moves between seeds and runs far more than what the
// daemon keeps once warm, which is the same for every seed.
func phaseLiveMB(t *TimedResult) float64 {
	live := median(u64s(t.Phase.GCLive))
	if len(t.Phase.GCLive) == 0 {
		live = float64(t.LiveEnd)
	}
	return max(live-float64(t.Setup.Base), 0) / 1e6
}

func u64s(xs []uint64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func roundAll(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return out
}
