// Command wlpa analyzes C source files with the Wilson–Lam context-
// sensitive pointer analysis and prints points-to sets, the resolved
// call graph, and analysis statistics.
//
// Usage:
//
//	wlpa [-pts] [-callgraph] [-stats] [-policy ptf|emami|single]
//	     [-remote host:port] file.c...
//
// With several files, the first is the entry translation unit and the
// rest are available for #include. With -remote the request is answered
// by a wlpad daemon (see cmd/wlpad); the daemon's analysis options
// apply, so -policy/-max-ptfs are rejected in that mode.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"wlpa/internal/server"
	"wlpa/pta"
)

func main() {
	var (
		showPts  = flag.Bool("pts", true, "print points-to sets of global pointers")
		showCG   = flag.Bool("callgraph", false, "print the resolved call graph")
		showStat = flag.Bool("stats", false, "print analysis statistics")
		policy   = flag.String("policy", "ptf", "summarization policy: ptf, emami, or single")
		maxPTFs  = flag.Int("max-ptfs", 0, "cap PTFs per procedure (0 = unlimited)")
		remote   = flag.String("remote", "", "answer via a wlpad daemon at this address instead of analyzing in-process")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: wlpa [flags] file.c ...")
		flag.PrintDefaults()
		os.Exit(2)
	}
	files := pta.Source{}
	entry := ""
	for i, path := range flag.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "wlpa: %v\n", err)
			os.Exit(1)
		}
		name := filepath.Base(path)
		files[name] = string(data)
		if i == 0 {
			entry = name
		}
	}

	if *remote != "" {
		if *policy != "ptf" || *maxPTFs != 0 {
			fmt.Fprintln(os.Stderr, "wlpa: -policy/-max-ptfs are fixed by the daemon; drop them with -remote")
			os.Exit(2)
		}
		runRemote(*remote, files, entry, *showPts, *showCG, *showStat)
		return
	}

	opts := &pta.Options{MaxPTFs: *maxPTFs}
	switch *policy {
	case "ptf":
		opts.Policy = pta.PartialTransferFunctions
	case "emami":
		opts.Policy = pta.ReanalyzeEveryContext
	case "single":
		opts.Policy = pta.OneSummary
	default:
		fmt.Fprintf(os.Stderr, "wlpa: unknown policy %q\n", *policy)
		os.Exit(2)
	}
	res, err := pta.Analyze(files, entry, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wlpa: %v\n", err)
		os.Exit(1)
	}
	if *showPts {
		fmt.Print(res.Describe())
	}
	if *showCG {
		printCallGraph(res.CallGraph())
	}
	if *showStat {
		st := res.Stats()
		fmt.Printf("procedures: %d\n", st.Procedures)
		fmt.Printf("PTFs: %d (%.2f per procedure)\n", st.PTFs, st.AvgPTFs())
		fmt.Printf("extended parameters: %d\n", st.Params)
		fmt.Printf("frontend: %s, analysis: %s (%d passes)\n",
			res.ParseTime(), st.Duration, st.Passes)
		fmt.Printf("collection: %d sweeps (%d changed their PTF); memoized applications skipped: %d\n",
			st.CollectSweeps, st.CollectGrowths, st.AppliesSkipped)
	}
}

// runRemote answers the same queries from a daemon-served snapshot.
func runRemote(addr string, files pta.Source, entry string, showPts, showCG, showStat bool) {
	c := &server.Client{Base: addr}
	resp, snap, err := c.Analyze(context.Background(), files, entry, false)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wlpa: %v\n", err)
		os.Exit(1)
	}
	if showPts {
		fmt.Print(snap.Describe())
	}
	if showCG {
		printCallGraph(snap.CallGraph())
	}
	if showStat {
		st := snap.Stats
		avg := 0.0
		if st.Procedures > 0 {
			avg = float64(st.PTFs) / float64(st.Procedures)
		}
		fmt.Printf("procedures: %d\n", st.Procedures)
		fmt.Printf("PTFs: %d (%.2f per procedure)\n", st.PTFs, avg)
		fmt.Printf("extended parameters: %d\n", st.Params)
		fmt.Printf("cache: %s (%.1fms total, key %s)\n",
			resp.Meta.Cache, resp.Meta.TotalMS, resp.Meta.Key[:12])
	}
}

func printCallGraph(edges []pta.CallEdge) {
	fmt.Println("call graph:")
	for _, e := range edges {
		fmt.Printf("  %s -> %s (%s)\n", e.Caller, e.Callee, e.Pos)
	}
}
