package workload

import (
	"fmt"
	"testing"

	"wlpa/internal/analysis"
	"wlpa/internal/cast"
	"wlpa/internal/cparse"
	"wlpa/internal/interp"
	"wlpa/internal/libsum"
	"wlpa/internal/memmod"
	"wlpa/internal/sem"
)

// covers reports whether the location-set key k includes byte offset off.
func covers(k memmod.LocSet, off int64) bool {
	if k.Stride == 0 {
		return k.Off == off
	}
	return ((off-k.Off)%k.Stride+k.Stride)%k.Stride == 0
}

// blockMatches identifies an analysis block with a runtime object.
func blockMatches(b *memmod.Block, sym *cast.Symbol, name string) bool {
	if sym != nil && b.Sym != nil {
		return b.Sym == sym
	}
	return b.Name == name
}

// checkSoundness runs the analysis and the interpreter over src and
// verifies that every dynamic points-to fact is covered by the static
// solution: the fundamental soundness property of the analysis.
func checkSoundness(t *testing.T, name, src string) {
	checkSoundnessOpts(t, name, src, analysis.Options{
		Lib:             libsum.Summaries(),
		CollectSolution: true,
	})
}

func checkSoundnessOpts(t *testing.T, name, src string, opts analysis.Options) {
	t.Helper()
	file, err := cparse.ParseSource(name, src)
	if err != nil {
		t.Fatalf("%s: parse: %v\n%s", name, err, numbered(src))
	}
	prog, err := sem.Check(file)
	if err != nil {
		t.Fatalf("%s: sem: %v", name, err)
	}
	an, err := analysis.New(prog, opts)
	if err != nil {
		t.Fatalf("%s: analysis.New: %v", name, err)
	}
	if err := an.Run(); err != nil {
		t.Fatalf("%s: analysis: %v", name, err)
	}
	in := interp.New(prog, interp.Options{RecordPointsTo: true, MaxSteps: 20_000_000})
	res, err := in.Run()
	if err != nil {
		t.Fatalf("%s: interp: %v", name, err)
	}
	sol := an.Solution()
	keys := sol.Locations()
	for _, fact := range res.Facts {
		if !factCovered(sol, keys, fact) {
			pos := ""
			if fact.Sym != nil {
				pos = fact.Sym.Pos.String()
			}
			t.Errorf("%s: UNSOUND: dynamic fact (%s@%s+%d) -> (%s+%d) not in static solution",
				name, fact.Block, pos, fact.Off, fact.Target, fact.TOff)
			for _, k := range keys {
				if blockMatches(k.Base, fact.Sym, fact.Block) {
					t.Logf("  static %v -> %v", k, sol.PointsTo(k))
				}
			}
		}
	}
}

func factCovered(sol *analysis.Solution, keys []memmod.LocSet, fact interp.DynFact) bool {
	for _, k := range keys {
		if !blockMatches(k.Base, fact.Sym, fact.Block) || !covers(k, fact.Off) {
			continue
		}
		for _, v := range sol.PointsTo(k).Locs() {
			if blockMatches(v.Base, fact.TSym, fact.Target) && covers(v, fact.TOff) {
				return true
			}
		}
	}
	return false
}

func numbered(src string) string {
	out := ""
	line := 1
	for _, l := range splitLines(src) {
		out += fmt.Sprintf("%3d| %s\n", line, l)
		line++
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, c := range s {
		if c == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(c)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}

func TestGeneratedProgramsParseAndRun(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		src := Generate(DefaultGenConfig(seed))
		file, err := cparse.ParseSource("gen.c", src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\n%s", seed, err, numbered(src))
		}
		prog, err := sem.Check(file)
		if err != nil {
			t.Fatalf("seed %d: sem: %v", seed, err)
		}
		if _, err := interp.New(prog, interp.Options{}).Run(); err != nil {
			t.Fatalf("seed %d: interp: %v\n%s", seed, err, numbered(src))
		}
	}
}

// TestSoundnessOnGeneratedPrograms is the central differential property
// test: for many random well-defined programs, every pointer relationship
// observed at run time must be predicted by the analysis.
func TestSoundnessOnGeneratedPrograms(t *testing.T) {
	n := int64(60)
	if testing.Short() {
		n = 10
	}
	for seed := int64(0); seed < n; seed++ {
		src := Generate(DefaultGenConfig(seed))
		checkSoundness(t, fmt.Sprintf("seed%d", seed), src)
		if t.Failed() {
			t.Logf("failing program (seed %d):\n%s", seed, numbered(src))
			break
		}
	}
}

func TestSoundnessSmallConfigs(t *testing.T) {
	cfgs := []GenConfig{
		{Seed: 1, NumGlobals: 2, NumPtrs: 2, NumFuncs: 1, StmtsPerFunc: 4},
		{Seed: 2, NumGlobals: 2, NumPtrs: 3, NumFuncs: 2, StmtsPerFunc: 6, Features: FeatHeap},
		{Seed: 3, NumGlobals: 3, NumPtrs: 3, NumFuncs: 3, StmtsPerFunc: 6, Features: FeatStructs},
		{Seed: 4, NumGlobals: 3, NumPtrs: 4, NumFuncs: 3, StmtsPerFunc: 8, Features: FeatFuncPtrs},
		{Seed: 5, NumGlobals: 2, NumPtrs: 2, NumFuncs: 2, StmtsPerFunc: 5, Features: FeatRecursion},
	}
	for i, cfg := range cfgs {
		src := Generate(cfg)
		checkSoundness(t, fmt.Sprintf("cfg%d", i), src)
		if t.Failed() {
			t.Logf("failing program (cfg %d):\n%s", i, numbered(src))
			break
		}
	}
}

// TestSoundnessWithCombineOffsets checks the §7 offset-combining
// optimization preserves soundness over generated programs.
func TestSoundnessWithCombineOffsets(t *testing.T) {
	n := int64(20)
	if testing.Short() {
		n = 5
	}
	for seed := int64(100); seed < 100+n; seed++ {
		src := Generate(DefaultGenConfig(seed))
		checkSoundnessOpts(t, fmt.Sprintf("combine-seed%d", seed), src, analysis.Options{
			Lib:             libsum.Summaries(),
			CollectSolution: true,
			CombineOffsets:  true,
		})
		if t.Failed() {
			t.Logf("failing program (seed %d):\n%s", seed, numbered(src))
			break
		}
	}
}
