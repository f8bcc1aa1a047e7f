// Command cgen emits a random well-defined pointer-heavy C program from
// the workload generator (the same generator the differential fuzzing
// harness uses), and can run the full oracle lattice over it or reduce
// a failing program from the command line.
//
// Usage:
//
//	cgen [-seed N] [-funcs N] [-stmts N] > prog.c
//	cgen -features heap,multiptr,free -seed 7 > prog.c
//	cgen -features all -seed 7 -check
//	cgen -fanout 16 -fandepth 2 > fanout.c
//	cgen -edit addstore -seed 7 > edited.c
//	cgen -edit bodytweak -seed 7 -check
//	cgen -minimize prog.c
//
// -fanout emits the deterministic wide fan-out call-graph shape that
// engine-equivalence and IR-hash tests use (breadth independent callee
// cones, each -fandepth calls deep); it composes with -check but
// ignores the random-generator flags.
//
// -edit KIND applies one structured edit (bodytweak, addstore,
// removestore, newcallee, deleteproc) to the generated program and
// prints the edited side; rerun without -edit for the base. With
// -fanout only bodytweak is supported (a seed-chosen statement column
// shift). Combined with -check it runs the incremental edit oracle
// instead: the edited program is re-analyzed against the base's
// converged result and the outcome is pinned bit-identical to a cold
// analysis.
//
// -check runs the differential oracle (engine equivalence, checker
// cleanliness, interpreter soundness, baseline lattice) over the
// generated program and exits non-zero on a property violation.
// -minimize reads a failing program from a file, shrinks it with the
// statement-level delta-debugging reducer while the same failure stage
// reproduces, and prints the reduced program.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"wlpa/internal/difftest"
	"wlpa/internal/workload"
)

func main() {
	var (
		seed     = flag.Int64("seed", 1, "generator seed")
		funcs    = flag.Int("funcs", 4, "number of generated functions")
		stmts    = flag.Int("stmts", 8, "statements per function")
		features = flag.String("features", "", "comma-separated generator features (or \"all\"); empty selects the legacy default set")
		fanout   = flag.Int("fanout", 0, "emit a deterministic fan-out call-graph shape with this breadth instead of a random program")
		fandepth = flag.Int("fandepth", 1, "callee-chain depth of each fan-out cone (with -fanout)")
		edit     = flag.String("edit", "", "apply a structured edit of this kind and print the edited program; with -check, run the incremental edit oracle over the (base, edited) pair")
		check    = flag.Bool("check", false, "run the differential oracle over the generated program instead of printing it")
		minimize = flag.String("minimize", "", "reduce the failing program in this file and print the result")
	)
	flag.Parse()

	if *minimize != "" {
		data, err := os.ReadFile(*minimize)
		if err != nil {
			fatal("%v", err)
		}
		src := string(data)
		orig := difftest.CheckProgram(*minimize, src, difftest.Options{})
		if orig == nil {
			fatal("%s passes the oracle; nothing to minimize", *minimize)
		}
		fl, ok := orig.(*difftest.Failure)
		if !ok {
			fatal("unexpected error: %v", orig)
		}
		fmt.Fprintf(os.Stderr, "minimizing %s failure: %s\n", fl.Stage, fl.Detail)
		reduced, path := difftest.ReduceFailure(fl, difftest.Options{})
		if path != "" {
			fmt.Fprintf(os.Stderr, "reproducer stored at %s\n", path)
		}
		fmt.Print(reduced)
		return
	}

	if *fanout > 0 {
		name := fmt.Sprintf("fanout(%dx%d)", *fanout, *fandepth)
		src := workload.FanOut(*fanout, *fandepth)
		if *edit != "" {
			if *edit != "bodytweak" {
				fatal("-fanout supports only -edit bodytweak, not %q", *edit)
			}
			edited, ok := workload.TweakNthStatement(src, int(*seed))
			if !ok {
				fatal("fan-out shape has no tweakable statement")
			}
			emitEditPair(name+"+tweak", src, edited, *check)
			return
		}
		if !*check {
			fmt.Print(src)
			return
		}
		if err := difftest.CheckProgram(name, src, difftest.Options{}); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("%s: all oracle properties hold\n", name)
		return
	}

	if *edit != "" {
		kind, ok := workload.EditKindByName(*edit)
		if !ok {
			var names []string
			for k := 0; k < workload.NumEditKinds(); k++ {
				names = append(names, workload.EditKind(k).String())
			}
			fatal("unknown edit kind %q (have: %s)", *edit, strings.Join(names, ", "))
		}
		feat := uint32(workload.AllFeatures())
		if *features != "" {
			f, err := parseFeatures(*features)
			if err != nil {
				fatal("%v", err)
			}
			feat = uint32(f)
		}
		pair, ok := workload.GenerateEditPair(*seed, feat, kind)
		if !ok {
			fatal("edit anchor missing for seed=%d kind=%s", *seed, kind)
		}
		emitEditPair(pair.Name, pair.Base, pair.Edited, *check)
		return
	}

	cfg := workload.DefaultGenConfig(*seed)
	cfg.NumFuncs = *funcs
	cfg.StmtsPerFunc = *stmts
	name := fmt.Sprintf("cgen(seed=%d)", *seed)
	if *features != "" {
		feat, err := parseFeatures(*features)
		if err != nil {
			fatal("%v", err)
		}
		cfg = workload.FuzzGenConfig(*seed, uint32(feat))
		cfg.NumFuncs = *funcs
		cfg.StmtsPerFunc = *stmts
		name = fmt.Sprintf("cgen(seed=%d,feat=%s)", *seed, cfg.Features)
	}
	src := workload.Generate(cfg)
	if !*check {
		fmt.Print(src)
		return
	}
	if err := difftest.CheckProgram(name, src, difftest.Options{}); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s: all oracle properties hold\n", name)
}

// emitEditPair prints the edited side of an incremental pair, or — with
// -check — runs the incremental edit oracle over it.
func emitEditPair(name, base, edited string, check bool) {
	if !check {
		fmt.Print(edited)
		return
	}
	if err := difftest.CheckIncremental(name, base, edited, difftest.Options{}); err != nil {
		fatal("%v", err)
	}
	fmt.Printf("%s: incremental re-analysis is bit-identical to cold\n", name)
}

func parseFeatures(s string) (workload.Feature, error) {
	if s == "all" {
		return workload.AllFeatures(), nil
	}
	var out workload.Feature
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		found := false
		for bit := 0; bit < workload.NumFeatures(); bit++ {
			if workload.FeatureName(bit) == part {
				out |= workload.Feature(1) << bit
				found = true
				break
			}
		}
		if !found {
			var names []string
			for bit := 0; bit < workload.NumFeatures(); bit++ {
				names = append(names, workload.FeatureName(bit))
			}
			return 0, fmt.Errorf("unknown feature %q (have: %s, all)", part, strings.Join(names, ", "))
		}
	}
	return out, nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "cgen: "+format+"\n", args...)
	os.Exit(1)
}
