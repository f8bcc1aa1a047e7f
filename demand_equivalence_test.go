// TestDemandEquivalence pins the acceptance bar of the demand-driven
// query mode: on every embedded benchmark, the demand walker's
// PointsToAt/PointsTo/MayAlias answers are bit-identical
// to the whole-program Result's — with call skipping on, with it off,
// and through the budget-exhaustion fallback. The fuzz-corpus side of
// the same identity is the difftest demand rung.
package wlpa_test

import (
	"fmt"
	"reflect"
	"testing"

	"wlpa/internal/workload"
	"wlpa/pta"
)

func TestDemandEquivalence(t *testing.T) {
	const maxSites = 24
	for _, b := range workload.Suite() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			res, err := pta.AnalyzeSource(b.Name+".c", b.Source, nil)
			if err != nil {
				t.Fatal(err)
			}
			views := []struct {
				name string
				d    *pta.Demand
			}{
				{"default", res.Demand(nil)},
				{"noskip", res.Demand(&pta.DemandOptions{NoCallSkip: true})},
				{"starved", res.Demand(&pta.DemandOptions{Budget: 2})},
			}
			for _, site := range res.SampleQuerySites(maxSites) {
				want := res.PointsToAt(site.Proc, site.Line, site.Expr)
				for _, v := range views {
					if got := v.d.PointsToAt(site.Proc, site.Line, site.Expr); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s PointsToAt(%s:%d %q): demand %v, result %v",
							v.name, site.Proc, site.Line, site.Expr, got, want)
					}
				}
			}
			globals := res.Globals()
			if len(globals) > 6 {
				globals = globals[:6]
			}
			for _, g := range globals {
				want := res.PointsTo(g)
				for _, v := range views {
					if got := v.d.PointsTo(g); !reflect.DeepEqual(got, want) {
						t.Fatalf("%s PointsTo(%s): demand %v, result %v", v.name, g, got, want)
					}
				}
			}
			for i, g := range globals {
				for _, h := range globals[i:] {
					want := res.MayAlias(g, h)
					for _, v := range views {
						if got := v.d.MayAlias(g, h); got != want {
							t.Fatalf("%s MayAlias(%s,%s): demand %v, result %v", v.name, g, h, got, want)
						}
					}
				}
			}
		})
	}
}

// BenchmarkDemandQuery measures warm single-query latency on the
// compiler benchmark (the ROADMAP's microsecond target; the JSON
// artifact counterpart is ptabench -demandjson).
func BenchmarkDemandQuery(b *testing.B) {
	var compiler workload.Benchmark
	for _, w := range workload.Suite() {
		if w.Name == "compiler" {
			compiler = w
		}
	}
	res, err := pta.AnalyzeSource("compiler.c", compiler.Source, nil)
	if err != nil {
		b.Fatal(err)
	}
	sites := res.SampleQuerySites(16)
	if len(sites) == 0 {
		b.Fatal("no query sites")
	}
	d := res.Demand(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sites[i%len(sites)]
		d.PointsToAt(s.Proc, s.Line, s.Expr)
	}
	b.StopTimer()
	if st := d.Stats(); st.Queries == 0 {
		b.Fatal(fmt.Sprintf("no queries recorded: %+v", st))
	}
}
