// Command wlcheck runs the context-sensitive pointer-bug checkers over
// C source files: NULL and uninitialized-pointer dereferences,
// use-after-free, double free, memory leaks, escaping locals, writes
// into string literals, indirect calls through non-function values,
// FILE-handle lifecycle violations, and tainted data reaching command
// or format-string sinks.
//
// Usage:
//
//	wlcheck [-checks list] [-passes list] [-format text|json|sarif]
//	        [-baseline file] [-write-baseline file]
//	        [-modref] [-q] [-trace] [-remote host:port]
//	        [-demand proc:line:expr,...] file.c...
//
// With several files, the first is the entry translation unit and the
// rest are available for #include. With -remote the diagnostics come
// from a wlpad daemon (see cmd/wlpad), which runs every pass with its
// own configuration — -checks/-passes/-max-ptfs are rejected in that
// mode; baselines and output formats work unchanged. With
// -demand, each listed site's points-to set is printed (the
// pta.Result.PointsToAt answer; on stderr with -format json or sarif,
// so stdout stays one document) and the diagnostics are restricted to
// the queried (proc, line) sites — pointwise checking of just the code
// under review. Usage errors are reported before any file is read.
// Exits 1 if any error-severity diagnostic survives baseline
// suppression, 2 on usage or front-end failure.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"wlpa/internal/server"
	"wlpa/pta"
)

func main() {
	var passNames []string
	for _, p := range pta.AllPasses() {
		passNames = append(passNames, p.Name)
	}
	var (
		checks    = flag.String("checks", "", "comma-separated checks to run (default: all of "+strings.Join(pta.AllChecks, ",")+")")
		passes    = flag.String("passes", "", "comma-separated passes to run (default: all of "+strings.Join(passNames, ",")+")")
		format    = flag.String("format", "text", "output format: text, json, or sarif")
		baseline  = flag.String("baseline", "", "suppress diagnostics whose fingerprints appear in this file")
		writeBase = flag.String("write-baseline", "", "write the run's fingerprints to this file (for future -baseline)")
		modref    = flag.Bool("modref", false, "print each procedure's MOD/REF summary before the diagnostics")
		quiet     = flag.Bool("q", false, "suppress warnings (print errors only; text format)")
		trace     = flag.Bool("trace", false, "print the calling context of each diagnostic (text format)")
		maxPTFs   = flag.Int("max-ptfs", 0, "cap PTFs per procedure (0 = unlimited)")
		remote    = flag.String("remote", "", "answer via a wlpad daemon at this address instead of analyzing in-process")
		demand    = flag.String("demand", "", "comma-separated proc:line:expr sites: print each site's points-to set and restrict diagnostics to the queried (proc,line) sites")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: wlcheck [flags] file.c ...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fail(fmt.Errorf("unknown -format %q (want text, json, or sarif)", *format))
	}
	sites, err := parseDemandSites(*demand)
	if err != nil {
		fail(err)
	}
	if *remote != "" {
		if *checks != "" || *passes != "" || *maxPTFs != 0 {
			fail(fmt.Errorf("-checks/-passes/-max-ptfs are fixed by the daemon; drop them with -remote"))
		}
		if len(sites) > 0 {
			fail(fmt.Errorf("-demand runs in-process; query the daemon's /query endpoint instead of combining it with -remote"))
		}
	}
	files := pta.Source{}
	entry := ""
	for i, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fail(err)
		}
		name := filepath.Base(path)
		files[name] = string(data)
		if i == 0 {
			entry = name
		}
	}
	var diags []pta.Diagnostic
	var modrefLines []string
	if *remote != "" {
		_, snap, err := (&server.Client{Base: *remote}).Analyze(context.Background(), files, entry, true)
		if err != nil {
			fail(err)
		}
		diags = snap.Diagnostics()
		modrefLines = snap.ModRefDump()
	} else {
		// One analysis serves the site answers, the MOD/REF dump and
		// the checks.
		res, err := pta.Analyze(files, entry, &pta.Options{MaxPTFs: *maxPTFs})
		if err != nil {
			fail(err)
		}
		siteOut := os.Stdout
		if *format != "text" {
			siteOut = os.Stderr
		}
		for _, s := range sites {
			pts := res.PointsToAt(s.proc, s.line, s.expr)
			fmt.Fprintf(siteOut, "%s:%d %s => {%s}\n", s.proc, s.line, s.expr, strings.Join(pts, ", "))
		}
		if *modref {
			modrefLines = res.ModRefDump()
		}
		copts := &pta.CheckOptions{}
		if *checks != "" {
			copts.Checks = strings.Split(*checks, ",")
		}
		if *passes != "" {
			copts.Passes = strings.Split(*passes, ",")
		}
		diags, err = res.Check(copts)
		if err != nil {
			fail(err)
		}
	}
	if *modref {
		for _, line := range modrefLines {
			fmt.Println(line)
		}
	}
	if len(sites) > 0 {
		diags = filterToSites(diags, sites)
	}
	if *baseline != "" {
		f, err := os.Open(*baseline)
		if err != nil {
			fail(err)
		}
		base, err := pta.LoadBaseline(f)
		f.Close()
		if err != nil {
			fail(err)
		}
		var suppressed int
		diags, suppressed = pta.Suppress(diags, base)
		if suppressed > 0 && *format == "text" {
			fmt.Fprintf(os.Stderr, "wlcheck: %d diagnostic(s) suppressed by baseline\n", suppressed)
		}
	}
	if *writeBase != "" {
		f, err := os.Create(*writeBase)
		if err != nil {
			fail(err)
		}
		if err := pta.WriteBaseline(f, diags); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	errors := 0
	for _, d := range diags {
		if d.Sev == pta.SevError {
			errors++
		}
	}
	switch *format {
	case "json":
		if err := pta.RenderJSON(os.Stdout, diags); err != nil {
			fail(err)
		}
	case "sarif":
		if err := pta.RenderSARIF(os.Stdout, diags); err != nil {
			fail(err)
		}
	case "text":
		for _, d := range diags {
			if d.Sev != pta.SevError && *quiet {
				continue
			}
			fmt.Printf("%s: %s: %s [%s]\n", d.Pos, d.Sev, d.Message, d.Check)
			if *trace && len(d.Trace) > 0 {
				fmt.Printf("    context: %s\n", strings.Join(d.Trace, " -> "))
			}
		}
		if errors > 0 {
			fmt.Printf("%d error(s)\n", errors)
		}
	}
	if errors > 0 {
		os.Exit(1)
	}
}

// demandSite is one parsed -demand query.
type demandSite struct {
	proc string
	line int
	expr string
}

// parseDemandSites parses the -demand value: comma-separated
// proc:line:expr triples ("main:12:*p,helper:30:q").
func parseDemandSites(spec string) ([]demandSite, error) {
	if spec == "" {
		return nil, nil
	}
	var sites []demandSite
	for _, part := range strings.Split(spec, ",") {
		fields := strings.SplitN(strings.TrimSpace(part), ":", 3)
		if len(fields) != 3 || fields[0] == "" || fields[2] == "" {
			return nil, fmt.Errorf("-demand site %q: want proc:line:expr", part)
		}
		line, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("-demand site %q: line %q is not an integer", part, fields[1])
		}
		sites = append(sites, demandSite{proc: fields[0], line: line, expr: fields[2]})
	}
	return sites, nil
}

// filterToSites keeps diagnostics at the queried (proc, line) sites.
func filterToSites(diags []pta.Diagnostic, sites []demandSite) []pta.Diagnostic {
	keep := make(map[[2]string]bool, len(sites))
	for _, s := range sites {
		keep[[2]string{s.proc, strconv.Itoa(s.line)}] = true
	}
	out := diags[:0]
	for _, d := range diags {
		if keep[[2]string{d.Proc, strconv.Itoa(d.Pos.Line)}] {
			out = append(out, d)
		}
	}
	return out
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "wlcheck: %v\n", err)
	os.Exit(2)
}
