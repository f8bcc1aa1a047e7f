package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// layers are the modules the traced pipeline crosses, in handler order.
// A span belongs to the layer its name starts with.
var layers = []string{"server", "cpp", "cparse", "sem", "cfg", "irhash", "store", "analysis", "snapshot", "check", "demand"}

func layerOf(spanName string) string {
	if i := strings.IndexByte(spanName, '.'); i >= 0 {
		return spanName[:i]
	}
	return spanName
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives the per-layer metrics: times, calls and bytes
// from the traced run, counters from the untraced run's reply meta and
// /metrics. Times are self time per timed op unless the name says
// otherwise, so they add up to the traced op time with trace.glue_ms.
func layerMetrics(t *TimedResult, tr *TracedResult) map[string]metric {
	a := tr.Agg
	ops := float64(max(a.Ops, 1))
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	self := func(name string) float64 {
		if g := a.ByName[name]; g != nil {
			return float64(g.SelfNS)
		}
		return 0
	}
	calls := func(name string) float64 {
		if g := a.ByName[name]; g != nil {
			return float64(g.Calls)
		}
		return 0
	}
	msPerOp := func(names ...string) float64 {
		sum := 0.0
		for _, n := range names {
			sum += self(n)
		}
		return sum / 1e6 / ops
	}

	for _, l := range layers {
		var n, bytes float64
		for name, g := range a.ByName {
			if layerOf(name) == l && name != probeSpan {
				n += float64(g.Calls)
				bytes += float64(g.Allocs)
			}
		}
		set(l+".calls", n/ops, "count")
		set(l+".alloc_kb", ratio(bytes, n)/1e3, "KB")
	}
	for _, l := range []string{"cpp", "cparse", "sem", "cfg", "irhash"} {
		set(l+".ms", msPerOp(l), "ms")
	}

	b, f, c := t.Before, t.After, t.Phase.Counters
	set("server.decode_ms", msPerOp("server.decode"), "ms")
	set("server.encode_ms", msPerOp("server.encode"), "ms")
	set("server.ledger_ms", msPerOp("server.ledger"), "ms")
	set("server.baselines", float64(f.Baselines.Occupancy), "count")
	set("server.query_entries", float64(f.Query.Occupancy), "count")
	set("server.evictions", float64(f.Baselines.Evictions-b.Baselines.Evictions+f.Query.Evictions-b.Query.Evictions), "count")
	set("server.phase_live_mb", phaseLiveMB(t), "MB")

	hits := float64(f.Store.Hits() - b.Store.Hits())
	set("store.get_ms", msPerOp("store.get"), "ms")
	set("store.put_ms", msPerOp("store.put"), "ms")
	set("store.hit_ratio", ratio(hits, hits+float64(f.Store.Misses-b.Store.Misses)), "ratio")
	set("store.mem_mb", float64(f.Store.MemBytes)/1e6, "MB")

	runMS := ratio(self("analysis.run"), calls("analysis.run")) / 1e6
	fixMS := ratio(self(probeSpan), calls(probeSpan)) / 1e6
	set("analysis.run_ms", msPerOp("analysis.run"), "ms")
	set("analysis.fixpoint_ms", fixMS, "ms")
	set("analysis.collect_ms", max(runMS-fixMS, 0), "ms")
	set("analysis.nodes_evaluated", ratio(float64(a.Counts.Nodes), float64(a.Counts.Analyses)), "count")
	set("analysis.graft_ms", msPerOp("analysis.graft"), "ms")
	set("analysis.graft_ratio", ratio(float64(c.Grafts), float64(c.Increments)), "ratio")
	set("analysis.restored_ptfs", ratio(float64(c.Restored), float64(c.Increments)), "count")
	set("analysis.reconverged_ptfs", ratio(float64(c.Reconverged), float64(c.Increments)), "count")

	set("snapshot.build_ms", msPerOp("snapshot.build"), "ms")
	set("snapshot.encode_ms", msPerOp("snapshot.encode"), "ms")
	set("snapshot.kb", ratio(float64(c.SnapshotBytes), float64(c.Snapshots))/1e3, "KB")

	set("check.reanalyze_ms", msPerOp("check.reanalyze"), "ms")
	set("check.passes_ms", msPerOp("check.passes"), "ms")
	set("check.diags", ratio(float64(a.Counts.Diags), float64(a.Counts.Checks)), "count")

	set("demand.query_us", ratio(self("demand.query"), calls("demand.query"))/1e3, "us")
	set("demand.nodes_per_query", ratio(float64(c.Nodes), float64(c.Sites)), "count")
	set("demand.skipped_calls_per_query", ratio(float64(c.Skipped), float64(c.Sites)), "count")
	set("demand.fallback_ratio", ratio(float64(c.Fallbacks), float64(c.DemandQueries)), "ratio")

	tracedMS := float64(a.OpNS) / 1e6 / ops
	set("trace.op_ms", tracedMS, "ms")
	set("trace.glue_ms", msPerOp(rootSpan), "ms")
	set("trace.overhead_ratio", ratio(tracedMS, meanMS(t.Phase)), "ratio")
	return m
}

func meanMS(p *Phase) float64 {
	var sum int64
	for _, l := range p.Lat {
		for _, ns := range l {
			sum += ns
		}
	}
	return float64(sum) / 1e6 / float64(max(p.ops(), 1))
}

func printMetrics(out io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// printClasses prints each program's op latency class, to show which
// class p50_ms and tail_ms fall in.
func printClasses(out io.Writer, in *Inputs, p *Phase) {
	byProg := map[string][]time.Duration{}
	for c, l := range p.Lat {
		for i, ns := range l {
			prog := in.Ops[in.Sched[c][i]].Prog
			byProg[prog] = append(byProg[prog], time.Duration(ns))
		}
	}
	type row struct {
		prog                string
		n                   int
		min, p50, max, mean float64
	}
	var rows []row
	for prog, lat := range byProg {
		s := sortedMS(lat)
		sum := 0.0
		for _, v := range s {
			sum += v
		}
		rows = append(rows, row{prog, len(s), s[0], median(s), s[len(s)-1], sum / float64(len(s))})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].p50 < rows[j].p50 })
	fmt.Fprintf(out, "  op latency class by program, ms:\n  %-10s %7s %10s %10s %10s %10s\n", "program", "ops", "min", "p50", "max", "mean")
	for _, r := range rows {
		fmt.Fprintf(out, "  %-10s %7d %10.4g %10.4g %10.4g %10.4g\n", r.prog, r.n, r.min, r.p50, r.max, r.mean)
	}
}

// printLayers prints the traced run: per-layer self time, calls and
// bytes, the check that self times add up to the traced op time, the
// tracing overhead, and one row per program.
func printLayers(out io.Writer, t *TimedResult, tr *TracedResult, metrics map[string]metric) {
	a := tr.Agg
	ops := float64(max(a.Ops, 1))
	opMS := float64(a.OpNS) / 1e6 / ops
	fmt.Fprintf(out, "traced run: %d ops, %.4g ms per op traced, %.4g ms untraced (overhead ratio %.3f)\n",
		a.Ops, opMS, meanMS(t.Phase), ratio(opMS, meanMS(t.Phase)))
	fmt.Fprintf(out, "  %-9s %12s %7s %9s %14s\n", "layer", "self ms/op", "share", "calls/op", "alloc KB/call")
	sum := 0.0
	for _, l := range append(append([]string(nil), layers...), rootSpan) {
		var selfNS, calls, bytes float64
		for name, g := range a.ByName {
			if layerOf(name) == l && name != probeSpan {
				selfNS += float64(g.SelfNS)
				calls += float64(g.Calls)
				bytes += float64(g.Allocs)
			}
		}
		ms := selfNS / 1e6 / ops
		sum += ms
		label := l
		if l == rootSpan {
			label = "glue" // inside an op, outside every layer span; includes the tracer's own cost
		}
		fmt.Fprintf(out, "  %-9s %12.4f %6.1f%% %9.2f %14.1f\n", label, ms, 100*ratio(ms, opMS), calls/ops, ratio(bytes, calls)/1e3)
	}
	fmt.Fprintf(out, "  self times sum to %.4f ms per op against %.4f ms traced op time\n", sum, opMS)

	cols := []struct {
		head  string
		names []string
	}{
		{"front", []string{"cpp", "cparse", "sem"}},
		{"cfg", []string{"cfg"}},
		{"irhash", []string{"irhash"}},
		{"fixpt", []string{probeSpan}},
		{"run", []string{"analysis.run"}},
		{"graft", []string{"analysis.graft"}},
		{"snap", []string{"snapshot.build"}},
		{"encode", []string{"snapshot.encode"}},
		{"chk.re", []string{"check.reanalyze"}},
		{"chk.ps", []string{"check.passes"}},
		{"demand", []string{"demand.query"}},
		{"server", []string{"server.decode", "server.encode", "server.ledger"}},
		{"store", []string{"store.get", "store.put"}},
	}
	fmt.Fprintf(out, "  per program, self ms per op (fixpt: the separate fixpoint probe, outside op time):\n  %-10s %6s %8s", "program", "ops", "op")
	for _, col := range cols {
		fmt.Fprintf(out, " %7s", col.head)
	}
	fmt.Fprintln(out)
	var progs []string
	for p := range a.ProgOps {
		progs = append(progs, p)
	}
	sort.Strings(progs)
	for _, p := range progs {
		n := float64(a.ProgOps[p])
		fmt.Fprintf(out, "  %-10s %6d %8.3f", p, a.ProgOps[p], float64(a.ProgOpNS[p])/1e6/n)
		for _, col := range cols {
			var ns int64
			for _, name := range col.names {
				ns += a.ByProg[p][name]
			}
			fmt.Fprintf(out, " %7.3f", float64(ns)/1e6/n)
		}
		fmt.Fprintln(out)
	}
	printMetrics(out, metrics)
}
