package main

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
	"time"
)

func encode(t *testing.T, in *Inputs) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(in); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func inputs(t *testing.T, workload string, seed int64) *Inputs {
	t.Helper()
	in, err := buildInputs(workload, seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// shorten keeps the first n scheduled ops of every client.
func shorten(in *Inputs, n int) {
	for c := range in.Sched {
		in.Sched[c] = in.Sched[c][:min(n, len(in.Sched[c]))]
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloadNames {
		a, b := encode(t, inputs(t, w, 7)), encode(t, inputs(t, w, 7))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 built different inputs twice", w)
		}
		if bytes.Equal(a, encode(t, inputs(t, w, 8))) {
			t.Errorf("%s: seeds 7 and 8 built identical inputs", w)
		}
	}
}

func TestTailRule(t *testing.T) {
	lat := func(n int) []time.Duration {
		out := make([]time.Duration, n)
		for i := range out {
			out[i] = time.Duration(n-i) * time.Millisecond // unsorted on purpose
		}
		return out
	}
	for _, c := range []struct {
		n      int
		pct    float64
		ms     float64
		beyond int
	}{
		{20, 50, 10, 10},    // p75 would leave 5 beyond
		{100, 90, 90, 10},   // p95 would leave 5
		{209, 95, 199, 10},  // p96 would leave 8
		{325, 96, 312, 13},  // p97 would leave 9 (cold_batch at 25 s)
		{1000, 99, 990, 10}, // the ladder stops at p99
		{20000, 99, 19800, 200},
	} {
		ms, pct, beyond, ok := tail(lat(c.n))
		if !ok || pct != c.pct || ms != c.ms || beyond != c.beyond {
			t.Errorf("n=%d: got p%g=%gms with %d beyond (ok %v), want p%g=%gms with %d", c.n, pct, ms, beyond, ok, c.pct, c.ms, c.beyond)
		}
	}
	if _, _, _, ok := tail(lat(19)); ok {
		t.Error("19 samples: no ladder percentile has 10 beyond it, want ok=false")
	}
}

// TestOpClasses runs a short schedule of each workload against the
// daemon and the traced replica: every reply must match its reference,
// and every op must be the class its workload claims, per reply meta
// and per /metrics.
func TestOpClasses(t *testing.T) {
	for _, w := range workloadNames {
		in := inputs(t, w, 3)
		shorten(in, 40)
		r, err := timedChild(in, time.Minute, true)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if r.Phase.Failed != 0 || len(r.RunErrors) != 0 {
			t.Errorf("%s: %d ops failed %v; run errors %v", w, r.Phase.Failed, r.Phase.Errors, r.RunErrors)
		}
		switch w {
		case editSession:
			if c := r.Phase.Counters; c.Increments != r.Phase.ops() {
				t.Errorf("edit_session: %d of %d edits attempted a graft", c.Increments, r.Phase.ops())
			}
		case queryRead:
			if r.After.Requests.Misses != r.Before.Requests.Misses || r.After.Query.Cold != r.Before.Query.Cold {
				t.Error("query_read ran the engine during the timed phase")
			}
		}

		tr, err := tracedChild(in, time.Minute, "")
		if err != nil {
			t.Fatalf("%s traced: %v", w, err)
		}
		if tr.Failed != 0 || len(tr.Errors) != 0 {
			t.Errorf("%s traced: %d ops failed: %v", w, tr.Failed, tr.Errors)
		}
		var self int64
		for name, g := range tr.Agg.ByName {
			if name != probeSpan {
				self += g.SelfNS
			}
		}
		if self != tr.Agg.OpNS {
			t.Errorf("%s traced: self times sum to %d ns, traced op time is %d ns", w, self, tr.Agg.OpNS)
		}
	}
}

// TestCorruptedReferenceFails flips one byte of a reference and expects
// exactly the ops checked against it to fail.
func TestCorruptedReferenceFails(t *testing.T) {
	in := inputs(t, coldBatch, 5)
	shorten(in, 13) // one pass: each program once
	in.Refs[0].Bytes[len(in.Refs[0].Bytes)-2] ^= 1
	r, err := timedChild(in, time.Minute, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Phase.Failed != 1 {
		t.Errorf("cold_batch: %d of %d ops failed with one corrupted reference, want 1", r.Phase.Failed, r.Phase.ops())
	}

	in = inputs(t, queryRead, 5)
	shorten(in, len(in.Ops)) // every site once per client
	in.Ops[0].Answers = []byte(strings.Replace(string(in.Ops[0].Answers), `"line":`, `"line":1`, 1))
	r, err = timedChild(in, time.Minute, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Phase.Failed != in.Clients {
		t.Errorf("query_read: %d ops failed with one corrupted answer, want %d", r.Phase.Failed, in.Clients)
	}
}

// TestRepeatedColdRequestIsCaught sends one cold_batch op twice: the
// second is a store hit, which the class check must reject.
func TestRepeatedColdRequestIsCaught(t *testing.T) {
	in := inputs(t, coldBatch, 5)
	in.Sched = [][]int32{{0, 0}}
	r, err := timedChild(in, time.Minute, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.Phase.Failed != 1 || len(r.RunErrors) == 0 {
		t.Errorf("repeated request: %d failed, run errors %v; want the hit reported", r.Phase.Failed, r.RunErrors)
	}
}
