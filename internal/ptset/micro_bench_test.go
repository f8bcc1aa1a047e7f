// Micro-benchmarks for the set kernels under the points-to layer: row
// union and iteration at three row sizes, the record scan behind a
// lookup, and the location-set intern table's hit and miss paths. These are the inner loops the Table 2 numbers
// decompose into; run with
//
//	go test ./internal/ptset -run '^$' -bench . -benchmem
package ptset

import (
	"fmt"
	"strings"
	"testing"

	"wlpa/internal/cast"
	"wlpa/internal/cfg"
	"wlpa/internal/ctype"
	"wlpa/internal/memmod"
)

// benchRow seeds a single row with n members at entry and returns the
// points-to function, the row's key and the node.
func benchRow(b *testing.B, n int) (*PTS, memmod.LocSet, *cfg.Node) {
	p := buildProc(b, `
int a, bb;
int *r;
void f(int c) {
    if (c) r = &a; else r = &bb;
    r = r;
}`, "f")
	pts := New(p, memmod.NewInterner())
	target := loc("bench_row")
	var vals memmod.ValueSet
	for i := 0; i < n; i++ {
		vals.Add(loc(fmt.Sprintf("bench_m%02d", i)))
	}
	pts.Assign(target, vals, p.Entry, false)
	return pts, target, p.Entry
}

// rowSizes are the row sizes the row benchmarks run at: a small row, a
// row of 16 members and a large one.
var rowSizes = []int{8, 16, 64}

// BenchmarkRowUnion measures the steady-state weak union of a full
// member set into an existing row — the no-growth membership walk that
// dominates convergence passes (a linear scan of the row per member).
func BenchmarkRowUnion(b *testing.B) {
	for _, n := range rowSizes {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			pts, target, nd := benchRow(b, n)
			vals, _ := pts.LookupOut(target, nd, nil)
			vals = vals.Clone()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pts.Assign(target, vals, nd, false)
			}
		})
	}
}

// BenchmarkRowIterate measures reading a row back out: the dominator-
// walk lookup plus a full iteration of the member slice.
func BenchmarkRowIterate(b *testing.B) {
	for _, n := range rowSizes {
		b.Run(fmt.Sprintf("members=%d", n), func(b *testing.B) {
			pts, target, nd := benchRow(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			var sink int64
			for i := 0; i < b.N; i++ {
				vals, _ := pts.LookupOut(target, nd, nil)
				for _, l := range vals.Locs() {
					sink += l.Off
				}
			}
			_ = sink
		})
	}
}

// BenchmarkLookupManyRecords measures the worst case of the record scan
// behind every lookup: one location assigned at every node of a
// 64-statement straight-line procedure and read flowing into its exit,
// so the scan weighs every record to find the nearest dominating one.
func BenchmarkLookupManyRecords(b *testing.B) {
	var src strings.Builder
	src.WriteString("int a;\nint *r;\nvoid f(void) {\n")
	for i := 0; i < 64; i++ {
		src.WriteString("    r = &a;\n")
	}
	src.WriteString("}\n")
	p := buildProc(b, src.String(), "f")
	pts := New(p, memmod.NewInterner())
	target := loc("bench_many")
	vals := memmod.Values(loc("bench_many_v"))
	for _, nd := range p.Nodes {
		if nd != p.Exit {
			pts.Assign(target, vals, nd, true)
		}
	}
	if n := pts.NumRecords(); n < 64 {
		b.Fatalf("%d records, want at least 64", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := pts.LookupIn(target, p.Exit, nil); !ok {
			b.Fatal("no dominating record")
		}
	}
}

// BenchmarkInternHit measures re-interning already-known location sets
// (the analysis's common case: every lookup and assign keys through the
// table).
func BenchmarkInternHit(b *testing.B) {
	in := memmod.NewInterner()
	blk := memmod.NewLocal(&cast.Symbol{Kind: cast.SymVar, Name: "intern_hit", Type: ctype.PointerTo(ctype.IntType)})
	keys := make([]memmod.LocSet, 512)
	for i := range keys {
		keys[i] = memmod.Loc(blk, int64(8*i), 0)
		in.ID(keys[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.ID(keys[i&511])
	}
}

// BenchmarkInternMiss measures first-time interning: every iteration
// presents a set the table has never seen (hash, probe, insert, ID
// assignment).
func BenchmarkInternMiss(b *testing.B) {
	in := memmod.NewInterner()
	blk := memmod.NewLocal(&cast.Symbol{Kind: cast.SymVar, Name: "intern_miss", Type: ctype.PointerTo(ctype.IntType)})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in.ID(memmod.Loc(blk, int64(8*i), 0))
	}
}
