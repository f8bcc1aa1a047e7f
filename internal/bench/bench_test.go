package bench

import (
	"encoding/json"
	"strings"
	"testing"

	"wlpa/internal/workload"
)

func TestTable2RowShape(t *testing.T) {
	b, ok := workload.ByName("grep")
	if !ok {
		t.Fatal("grep missing")
	}
	row, err := RunTable2One(b)
	if err != nil {
		t.Fatal(err)
	}
	if row.Name != "grep" || row.Lines == 0 || row.Procedures == 0 {
		t.Errorf("row = %+v", row)
	}
	if row.AvgPTFs < 1.0 || row.AvgPTFs > 2.0 {
		t.Errorf("avg PTFs = %.2f", row.AvgPTFs)
	}
	if row.Analysis <= 0 {
		t.Error("no analysis time measured")
	}
	if row.PaperProcs != 9 || row.PaperSeconds != 0.65 {
		t.Errorf("paper reference values wrong: %+v", row)
	}
}

func TestFormatTable2(t *testing.T) {
	b, _ := workload.ByName("alvinn")
	row, err := RunTable2One(b)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable2([]Table2Row{row})
	if !strings.Contains(out, "alvinn") || !strings.Contains(out, "Table 2") {
		t.Errorf("format output:\n%s", out)
	}
}

func TestTable3ShapeViaHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := RunTable3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	alvinn, ear := rows[0], rows[1]
	if alvinn.Name != "alvinn" || ear.Name != "ear" {
		t.Fatalf("order: %v %v", alvinn.Name, ear.Name)
	}
	// The two relations the paper's Table 3 demonstrates.
	if alvinn.AvgPerLoop < ear.AvgPerLoop {
		t.Error("alvinn loops must be coarser than ear's")
	}
	if alvinn.Speedup4 <= ear.Speedup4 {
		t.Error("alvinn must outscale ear at 4 processors")
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "Table 3") || !strings.Contains(out, "ear") {
		t.Errorf("format:\n%s", out)
	}
}

func TestInvokeComparisonHarness(t *testing.T) {
	rows, err := RunInvokeComparison([]string{"compiler"}, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatal("no rows")
	}
	r := rows[0]
	if r.InvokeNodes < int64(r.Procedures)*10 {
		t.Errorf("invocation graph (%d) should dwarf PTFs (%d)", r.InvokeNodes, r.PTFs)
	}
	out := FormatInvoke(rows)
	if !strings.Contains(out, "compiler") {
		t.Errorf("format:\n%s", out)
	}
}

func TestAblationHarness(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rows, err := RunAblation("grep")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	byPolicy := map[string]AblationRow{}
	for _, r := range rows {
		key := strings.Fields(r.Policy)[0]
		byPolicy[key] = r
	}
	paper := byPolicy["alias-pattern"]
	emami := byPolicy["never-reuse"]
	if paper.PTFs >= emami.PTFs {
		t.Errorf("alias-pattern (%d PTFs) must beat never-reuse (%d)", paper.PTFs, emami.PTFs)
	}
	out := FormatAblation(rows)
	if !strings.Contains(out, "alias-pattern") {
		t.Errorf("format:\n%s", out)
	}
}

// TestEmissionRecord measures one suite program through the emission's
// per-program path and checks the record CI's gates read: every time,
// the snapshot size and the retained heap are positive, the warm edit
// grafted, queries were sampled, Table 2 reads the same PTF column, and
// every field of the documented record shape survives JSON encoding.
// Timing ratios are left to CI.
func TestEmissionRecord(t *testing.T) {
	b, ok := workload.ByName("allroots")
	if !ok {
		t.Fatal("allroots missing")
	}
	rep, err := newReport([]workload.Benchmark{b})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 {
		t.Fatalf("entries = %d", len(rep.Entries))
	}
	e := rep.Entries[0]
	for name, ns := range map[string]int64{
		"ns_per_op": e.NsPerOp, "whole_program_ns": e.WholeProgramNs,
		"snapshot_ns": e.SnapshotNs, "snapshot_bytes": int64(e.SnapshotBytes),
		"retained_bytes": e.RetainedBytes, "edit.cold_ns": e.Edit.ColdNs,
		"edit.incremental_ns": e.Edit.IncrementalNs, "edit.hash_ns": e.Edit.HashNs,
		"query.cold_query_ns": e.Query.ColdQueryNs, "query.warm_query_ns": e.Query.WarmQueryNs,
	} {
		if ns <= 0 {
			t.Errorf("%s = %d, want > 0", name, ns)
		}
	}
	if e.Edit.DirtyProcs < 1 || e.Edit.CleanProcs < 1 || e.Edit.RestoredPTFs <= 0 || e.Edit.EditedProc == "" {
		t.Errorf("edit did not graft a single-procedure tweak: %+v", e.Edit)
	}
	if e.Query.Sites <= 0 {
		t.Errorf("query.sites = %d", e.Query.Sites)
	}
	row, err := RunTable2One(b)
	if err != nil {
		t.Fatal(err)
	}
	if e.PTFsPerProc != row.AvgPTFs {
		t.Errorf("ptfs_per_proc = %v, Table 2 AvgPTFs = %v", e.PTFsPerProc, row.AvgPTFs)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"generated", "go_version", "protocol"} {
		if s, _ := doc[key].(string); s == "" {
			t.Errorf("envelope field %q missing or empty", key)
		}
	}
	entries, _ := doc["entries"].([]any)
	if len(entries) != 1 {
		t.Fatalf("entries in JSON = %v", doc["entries"])
	}
	entry, _ := entries[0].(map[string]any)
	paths := [][]string{
		{"name"}, {"ns_per_op"}, {"allocs_per_op"}, {"ptfs_per_proc"}, {"whole_program_ns"},
		{"snapshot_ns"}, {"snapshot_bytes"}, {"retained_bytes"},
	}
	for _, f := range []string{"edited_proc", "tweak", "cold_ns", "incremental_ns", "hash_ns", "speedup",
		"clean_procs", "dirty_procs", "restored_ptfs", "reconverged_ptfs"} {
		paths = append(paths, []string{"edit", f})
	}
	for _, f := range []string{"sites", "cold_query_ns", "warm_query_ns", "speedup"} {
		paths = append(paths, []string{"query", f})
	}
	for _, path := range paths {
		var v any = entry
		for _, key := range path {
			obj, _ := v.(map[string]any)
			v = obj[key]
		}
		if v == nil {
			t.Errorf("entry path .%s missing", strings.Join(path, "."))
		}
	}
}
