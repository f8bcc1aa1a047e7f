package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"wlpa/internal/server"
	"wlpa/internal/workload"
)

// Workload names, as passed to --workload.
const (
	coldBatch   = "cold_batch"
	editSession = "edit_session"
	queryRead   = "query_read"
)

var workloadNames = []string{coldBatch, editSession, queryRead}

// The seed picks order, edits and query sites; it never picks which
// programs a workload touches. A seeded file choice changed the work per
// op by up to 20x between seeds (allroots against loader), which no run
// length averages away, so the program sets are fixed here.
var (
	// coldEarly are posted first in every cold_batch pass, in seeded
	// order, and coldLate after them. The daemon keeps the last 8
	// baselines it registered, so fixing the late group fixes which
	// programs' analyses are alive when retained_mb is read.
	coldEarly = []string{"allroots", "alvinn", "grep", "diff", "lex315"}
	coldLate  = []string{"compress", "loader", "football", "compiler", "assembler", "eqntott", "ear", "simulator"}

	// editFocus takes 9 of every 12 edit_session steps and editOthers
	// one each. compiler's step is mostly snapshot build and hover
	// converge, the profile the workload is meant to measure.
	editFocus  = "compiler"
	editOthers = []string{"loader", "grep", "ear"}

	// queryEntries are the warm entries query_read reads.
	queryEntries = []string{"compiler", "loader", "football", "simulator"}
)

const (
	editCycle     = 12 // steps per edit_session cycle: 9 focus + 1 per other file
	hoversPerStep = 4
	editSites     = 32 // hover site pool per edit_session file
	querySites    = 64 // GET site pool per query_read entry
)

// Nominal rates on a 2-vCPU x86-64 VM, used only to turn --seconds into
// a fixed op count; the count, not the clock, bounds a run.
const (
	coldPassesPerSec = 1.0   // a pass posts all 13 programs
	editCyclesPerSec = 0.85  // a cycle is 12 save steps
	queryOpsPerSec   = 80000 // GET /query ops
)

// Request is one prepared daemon request. Bodies are encoded while the
// inputs are built, so no op pays for encoding its input.
type Request struct {
	Method string
	Target string
	Body   []byte
}

func (r *Request) httpRequest() *http.Request {
	req, err := http.NewRequest(r.Method, r.Target, bytes.NewReader(r.Body))
	if err != nil {
		panic(err) // targets are built by this package from fixed paths
	}
	return req
}

// Op is one unit of the timed schedule: the requests sent back to back
// inside one latency window, and what their replies must be.
type Op struct {
	Prog string // suite program the op touches
	Reqs []Request
	// Ref indexes Inputs.Refs: the snapshot a cold_batch or
	// edit_session op must serve.
	Ref int
	// Answers is the reference answer list of an edit_session hover or
	// a query_read GET, encoded the way the daemon encodes it.
	Answers []byte
}

// Inputs is everything a run sends and checks against: warm-up
// requests, the op pool, each client's schedule of indices into the
// pool, and the reference snapshots. It is built once by the parent
// process and handed to each measuring child.
type Inputs struct {
	Workload string
	Clients  int
	Setup    []Request
	Ops      []Op
	Sched    [][]int32
	Refs     []SnapRef
}

func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// countFor turns --seconds into a whole number of units at a nominal rate.
func countFor(seconds int, perSec float64) int {
	return max(1, int(float64(seconds)*perSec+0.5))
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs of strings and ints are encoded here
	}
	return b
}

func permute(rng *rand.Rand, names []string) []string {
	out := append([]string(nil), names...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func seq(n int) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

func analyzeRequest(files map[string]string, entry string, diags bool) Request {
	return Request{Method: "POST", Target: "/analyze", Body: mustJSON(server.AnalyzeRequest{
		Files: files, Entry: entry, Diagnostics: diags,
	})}
}

func queryRequest(files map[string]string, entry string, sites []server.SiteQuery) Request {
	return Request{Method: "POST", Target: "/query", Body: mustJSON(server.QueryRequest{
		Files: files, Entry: entry, Queries: sites,
	})}
}

func getRequest(entry string, s server.SiteQuery) Request {
	v := url.Values{}
	v.Set("entry", entry)
	v.Set("proc", s.Proc)
	v.Set("line", strconv.Itoa(s.Line))
	v.Set("expr", s.Expr)
	return Request{Method: "GET", Target: "/query?" + v.Encode()}
}

// wrapperFiles makes a cold_batch request's files: a fresh entry that
// includes the suite program under its own name, plus a prototype salt.
// The salt moves the IR root, so the store misses, without changing the
// snapshot; keeping the program text in <prog>.c keeps source positions,
// and so the snapshot bytes, independent of the fresh entry name.
func wrapperFiles(prog, src, entry string, salt int) map[string]string {
	return map[string]string{
		entry:       fmt.Sprintf("#include \"%s.c\"\nvoid wlpad_salt_%d(void);\n", prog, salt),
		prog + ".c": src,
	}
}

// buildInputs makes the named workload's inputs and references for a
// seed. Nothing here is timed.
func buildInputs(name string, seed int64, seconds int) (*Inputs, error) {
	src := map[string]string{}
	for _, b := range workload.Suite() {
		src[b.Name] = b.Source
	}
	switch name {
	case coldBatch:
		return buildColdBatch(seed, seconds, src)
	case editSession:
		return buildEditSession(seed, seconds, src)
	case queryRead:
		return buildQueryRead(seed, seconds, src)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// buildColdBatch makes passes over all 13 suite programs, each request
// under a never-seen entry name with new content, checked against one
// cold library run per program.
func buildColdBatch(seed int64, seconds int, src map[string]string) (*Inputs, error) {
	rng := newRand(seed, 1)
	in := &Inputs{Workload: coldBatch, Clients: 1}
	refOf := map[string]int{}
	for _, p := range append(append([]string(nil), coldEarly...), coldLate...) {
		ref, _, err := referenceSnapshot(wrapperFiles(p, src[p], "ref.c", 0), "ref.c", true)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", p, err)
		}
		// The answer the suite's cleanliness test pins.
		if ref.Errors != 0 {
			return nil, fmt.Errorf("reference for %s: %d error diagnostics on a clean suite program", p, ref.Errors)
		}
		refOf[p] = len(in.Refs)
		in.Refs = append(in.Refs, *ref)
	}
	salt := 0
	pass := func(tag string) []Op {
		order := append(permute(rng, coldEarly), permute(rng, coldLate)...)
		ops := make([]Op, 0, len(order))
		for _, p := range order {
			salt++
			entry := fmt.Sprintf("%s_%d_%s.c", tag, salt, p)
			ops = append(ops, Op{Prog: p, Ref: refOf[p],
				Reqs: []Request{analyzeRequest(wrapperFiles(p, src[p], entry, salt), entry, true)}})
		}
		return ops
	}
	for _, o := range pass("warm") {
		in.Setup = append(in.Setup, o.Reqs[0])
	}
	for i := 0; i < countFor(seconds, coldPassesPerSec); i++ {
		in.Ops = append(in.Ops, pass(fmt.Sprintf("p%d", i))...)
	}
	in.Sched = [][]int32{seq(len(in.Ops))}
	return in, nil
}

// editFile is one open file of the edit session.
type editFile struct {
	src     string
	globals string
	sites   []server.SiteQuery
	next    int // next hover site in the seeded site order
}

// hovers returns the file's next hoversPerStep sites, cycling through
// its seeded site order so every site is asked equally often.
func (f *editFile) hovers() []server.SiteQuery {
	out := make([]server.SiteQuery, hoversPerStep)
	for i := range out {
		out[i] = f.sites[f.next%len(f.sites)]
		f.next++
	}
	return out
}

// buildEditSession prepares the IDE session: per open file a chain of
// one-statement edits, each validated before any clock starts (see
// nextEdit), with a cold library reference for every step.
func buildEditSession(seed int64, seconds int, src map[string]string) (*Inputs, error) {
	rng := newRand(seed, 2)
	in := &Inputs{Workload: editSession, Clients: 1}
	files := map[string]*editFile{}
	seen := map[string]bool{}
	for _, p := range append([]string{editFocus}, editOthers...) {
		entry := p + ".c"
		base := map[string]string{entry: src[p]}
		_, res, err := referenceSnapshot(base, entry, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		ir, err := hashSource(base, entry)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		seen[ir.Root] = true
		f := &editFile{src: src[p], globals: ir.Globals}
		for _, s := range res.SampleQuerySites(editSites) {
			f.sites = append(f.sites, server.SiteQuery{Proc: s.Proc, Line: s.Line, Expr: s.Expr})
		}
		rng.Shuffle(len(f.sites), func(i, j int) { f.sites[i], f.sites[j] = f.sites[j], f.sites[i] })
		files[p] = f
		in.Setup = append(in.Setup, analyzeRequest(base, entry, false), queryRequest(base, entry, f.hovers()))
	}

	// The edit chain is sequential and cheap (frontend and hashing);
	// the references are independent, so they are computed in parallel.
	type step struct {
		prog, src string
		hovers    []server.SiteQuery
	}
	var steps []step
	for c := 0; c < countFor(seconds, editCyclesPerSec); c++ {
		cycle := append([]string(nil), editOthers...)
		for len(cycle) < editCycle {
			cycle = append(cycle, editFocus)
		}
		for _, p := range permute(rng, cycle) {
			f := files[p]
			edited, err := nextEdit(rng, f.src, p+".c", f.globals, seen)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			f.src = edited
			steps = append(steps, step{p, edited, f.hovers()})
		}
	}
	in.Ops = make([]Op, len(steps))
	in.Refs = make([]SnapRef, len(steps))
	err := parallel(len(steps), func(i int) error {
		st, entry := steps[i], steps[i].prog+".c"
		files := map[string]string{entry: st.src}
		ref, res, err := referenceSnapshot(files, entry, false)
		if err != nil {
			return fmt.Errorf("%s: reference: %w", st.prog, err)
		}
		in.Refs[i] = *ref
		in.Ops[i] = Op{
			Prog:    st.prog,
			Reqs:    []Request{analyzeRequest(files, entry, false), queryRequest(files, entry, st.hovers)},
			Ref:     i,
			Answers: referenceAnswers(res, st.hovers),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	in.Sched = [][]int32{seq(len(in.Ops))}
	return in, nil
}

// buildQueryRead prepares the point-query tool traffic: a pool of
// sampled sites over the warm entries with their exhaustive answers,
// and per client a schedule that visits every site equally often in
// seeded order.
func buildQueryRead(seed int64, seconds int, src map[string]string) (*Inputs, error) {
	rng := newRand(seed, 3)
	in := &Inputs{Workload: queryRead, Clients: 1}
	for _, p := range queryEntries {
		entry := p + ".c"
		files := map[string]string{entry: src[p]}
		_, res, err := referenceSnapshot(files, entry, false)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		var sites []server.SiteQuery
		for _, s := range res.SampleQuerySites(querySites) {
			sq := server.SiteQuery{Proc: s.Proc, Line: s.Line, Expr: s.Expr}
			sites = append(sites, sq)
			in.Ops = append(in.Ops, Op{Prog: p, Reqs: []Request{getRequest(entry, sq)},
				Answers: referenceAnswers(res, []server.SiteQuery{sq})})
		}
		in.Setup = append(in.Setup, queryRequest(files, entry, sites[:1]))
	}
	// Answering every site once in setup fills the walker caches.
	for _, o := range in.Ops {
		in.Setup = append(in.Setup, o.Reqs[0])
	}
	perClient := len(in.Ops) * in.Clients
	rounds := (countFor(seconds, queryOpsPerSec) + perClient - 1) / perClient
	for c := 0; c < in.Clients; c++ {
		var s []int32
		for r := 0; r < rounds; r++ {
			perm := seq(len(in.Ops))
			rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			s = append(s, perm...)
		}
		in.Sched = append(in.Sched, s)
	}
	return in, nil
}

// parallel runs f(0..n-1) on two goroutines, the benchmark host's CPU
// count, and returns the first error.
func parallel(n int, f func(i int) error) error {
	const workers = 2
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n && errs[w] == nil; i += workers {
				errs[w] = f(i)
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}
