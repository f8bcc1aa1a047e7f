package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"time"

	"wlpa/internal/cfg"
	"wlpa/internal/irhash"
	"wlpa/internal/server"
	"wlpa/internal/workload"
	"wlpa/pta"
)

// shippedOptions are the analysis options `wlpad serve` runs with when
// given no flags.
func shippedOptions() pta.Options {
	return pta.Options{Workers: 0, Timeout: 2 * time.Minute}
}

// fpPlaceholder stands in for the cache key in reference snapshots; the
// daemon records its key there, and the check splices the served key in.
var fpPlaceholder = strings.Repeat("f", 64)

// SnapRef is a reference snapshot from a cold library run, encoded with
// fpPlaceholder as its fingerprint.
type SnapRef struct {
	Bytes  []byte
	FP     int // offset of fpPlaceholder in Bytes
	Errors int // error-severity diagnostics
}

// referenceSnapshot runs the library cold on files, as a client would
// without the daemon: frontend, pta.AnalyzeProgram, Result.Snapshot.
func referenceSnapshot(files map[string]string, entry string, diags bool) (*SnapRef, *pta.Result, error) {
	opts := shippedOptions()
	prog, err := pta.Frontend(pta.Source(files), entry, nil)
	if err != nil {
		return nil, nil, err
	}
	res, err := pta.AnalyzeProgram(prog, &opts)
	if err != nil {
		return nil, nil, err
	}
	snap, err := res.Snapshot(&pta.SnapshotOptions{Fingerprint: fpPlaceholder, Diagnostics: diags})
	if err != nil {
		return nil, nil, err
	}
	data, err := snap.Encode()
	if err != nil {
		return nil, nil, err
	}
	fp := bytes.Index(data, []byte(fpPlaceholder))
	if fp < 0 || bytes.Contains(data[fp+1:], []byte(fpPlaceholder)) {
		return nil, nil, fmt.Errorf("%s: fingerprint placeholder not unique in snapshot", entry)
	}
	ref := &SnapRef{Bytes: data, FP: fp}
	for _, d := range snap.Diags {
		if d.Severity == "error" {
			ref.Errors++
		}
	}
	return ref, res, nil
}

// matches reports whether served equals the reference with the daemon's
// cache key in the fingerprint field.
func (r *SnapRef) matches(served []byte, key string) bool {
	end := r.FP + len(fpPlaceholder)
	return len(key) == len(fpPlaceholder) && len(served) == len(r.Bytes) &&
		bytes.Equal(served[:r.FP], r.Bytes[:r.FP]) &&
		string(served[r.FP:end]) == key &&
		bytes.Equal(served[end:], r.Bytes[end:])
}

// referenceAnswers encodes the exhaustive Result.PointsToAt answers for
// sites the way the daemon encodes a reply's answer list.
func referenceAnswers(res *pta.Result, sites []server.SiteQuery) []byte {
	out := make([]server.QueryAnswer, len(sites))
	for i, s := range sites {
		out[i] = server.QueryAnswer{Proc: s.Proc, Line: s.Line, Expr: s.Expr,
			PointsTo: res.PointsToAt(s.Proc, s.Line, s.Expr)}
	}
	return mustJSON(out)
}

// nextEdit applies seeded one-statement tweaks to src until one passes
// validation. A tweak that leaves the IR root where it was would be
// served as a store hit, and one that moves the globals digest would
// skip the graft, so both are rejected, as is any root seen before.
func nextEdit(rng *rand.Rand, src, entry, globals string, seen map[string]bool) (string, error) {
	n := rng.IntN(1 << 20)
	for try := 0; try < 256; try++ {
		edited, ok := workload.TweakNthStatement(src, n+try)
		if !ok {
			break
		}
		ir, err := hashSource(map[string]string{entry: edited}, entry)
		if err != nil || seen[ir.Root] || ir.Globals != globals {
			continue
		}
		seen[ir.Root] = true
		return edited, nil
	}
	return "", fmt.Errorf("no statement edit moves the IR root")
}

// hashSource runs the daemon's cache-key path: frontend, flow graphs
// and IR hashing.
func hashSource(files map[string]string, entry string) (*irhash.Program, error) {
	prog, err := pta.Frontend(pta.Source(files), entry, nil)
	if err != nil {
		return nil, err
	}
	procs, err := cfg.BuildAll(prog.Funcs)
	if err != nil {
		return nil, err
	}
	return irhash.HashProcs(prog, procs), nil
}

// checkReply validates one op's replies against its reference, and that
// the op was served the way its workload claims: a cold_batch op is a
// store miss with no graft attempt; an edit_session save is a miss that
// grafted or recorded a fallback, and its hover converged the edited
// source; a query_read GET is answered warm.
func checkReply(in *Inputs, o *Op, replies []*recorder) error {
	for i := range o.Reqs {
		if r := replies[i]; r.code != 200 {
			return fmt.Errorf("%s %s: status %d: %.200s", o.Reqs[i].Method, o.Reqs[i].Target, r.code, r.buf.Bytes())
		}
	}
	switch in.Workload {
	case coldBatch, editSession:
		var resp server.AnalyzeResponse
		if err := json.Unmarshal(replies[0].buf.Bytes(), &resp); err != nil {
			return err
		}
		grafted := resp.Meta.Incremental != nil
		if resp.Meta.Cache != "miss" || grafted != (in.Workload == editSession) {
			return fmt.Errorf("%s: served as %q with graft attempt %v", o.Prog, resp.Meta.Cache, grafted)
		}
		if !in.Refs[o.Ref].matches(resp.Snapshot, resp.Meta.Key) {
			return fmt.Errorf("%s: snapshot differs from the cold library run", o.Prog)
		}
		if in.Workload == coldBatch {
			return nil
		}
		var q server.QueryResponse
		if err := json.Unmarshal(replies[1].buf.Bytes(), &q); err != nil {
			return err
		}
		if q.Meta.Cache != "cold" {
			return fmt.Errorf("%s: hover served %q, want a converge of the edited source", o.Prog, q.Meta.Cache)
		}
		if !bytes.Equal(mustJSON(q.Answers), o.Answers) {
			return fmt.Errorf("%s: hover answers differ from Result.PointsToAt", o.Prog)
		}
	case queryRead:
		body := replies[0].buf.Bytes()
		if !bytes.HasPrefix(body, []byte(`{"meta":{"cache":"warm",`)) {
			return fmt.Errorf("%s: GET /query not answered warm: %.120s", o.Prog, body)
		}
		const tag = `,"answers":`
		i := bytes.LastIndex(body, []byte(tag))
		if i < 0 || !bytes.Equal(bytes.TrimSuffix(body[i+len(tag):], []byte("}\n")), o.Answers) {
			return fmt.Errorf("%s: answer for %s differs from Result.PointsToAt", o.Prog, o.Reqs[0].Target)
		}
	}
	return nil
}

// saltedSpotChecks runs the library cold on the exact files of one
// seeded timed op per program and compares with that program's
// reference, confirming that the entry wrapper and the salt leave the
// snapshot unchanged, which is what lets every op share one reference.
func saltedSpotChecks(in *Inputs, seed int64) []string {
	rng := newRand(seed, 4)
	byProg := map[string][]*Op{}
	for i := range in.Ops {
		o := &in.Ops[i]
		byProg[o.Prog] = append(byProg[o.Prog], o)
	}
	var errs []string
	for _, p := range append(append([]string(nil), coldEarly...), coldLate...) {
		o := byProg[p][rng.IntN(len(byProg[p]))]
		var req server.AnalyzeRequest
		if err := json.Unmarshal(o.Reqs[0].Body, &req); err != nil {
			errs = append(errs, err.Error())
			continue
		}
		ref, _, err := referenceSnapshot(req.Files, req.Entry, req.Diagnostics)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", req.Entry, err))
		} else if !bytes.Equal(ref.Bytes, in.Refs[o.Ref].Bytes) {
			errs = append(errs, fmt.Sprintf("%s: library snapshot of the salted request differs from %s's reference", req.Entry, p))
		}
	}
	return errs
}

// fixtureDefects is the hand-written known answer for each seeded-bug
// fixture: the check its file name announces, at error severity.
var fixtureDefects = map[string]string{
	"badcall":      "badcall",
	"doubleclose":  "doubleclose",
	"doublefree":   "doublefree",
	"fileleak":     "fileleak",
	"leak":         "leak",
	"localescape":  "localescape",
	"nullderef":    "nullderef",
	"taint":        "taintflow",
	"typestate":    "useafterclose",
	"uninit":       "uninitderef",
	"useafterfree": "useafterfree",
	"writero":      "writero",
}

// fixtureChecks sends every bug_*.c fixture through the daemon and
// checks that each reports the defect its name seeds.
func fixtureChecks(h http.Handler) []string {
	var errs []string
	fixtures := workload.BugFixtures()
	for name := range fixtures {
		if fixtureDefects[name] == "" {
			errs = append(errs, fmt.Sprintf("bug_%s.c has no known answer", name))
		}
	}
	for name, check := range fixtureDefects {
		entry := "bug_" + name + ".c"
		rq := analyzeRequest(map[string]string{entry: fixtures[name]}, entry, true)
		body, err := serve(h, &rq)
		if err != nil {
			errs = append(errs, err.Error())
			continue
		}
		var resp server.AnalyzeResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", entry, err))
			continue
		}
		snap, err := pta.DecodeSnapshot(resp.Snapshot)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", entry, err))
			continue
		}
		found := false
		for _, d := range snap.Diags {
			found = found || (d.Check == check && d.Severity == "error")
		}
		if !found {
			errs = append(errs, fmt.Sprintf("%s: no %s error reported", entry, check))
		}
	}
	return errs
}
