package analysis

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
)

// DomainDigests returns, per analyzed procedure, a stable digest of the
// set of converged input domains (one per PTF): the initial points-to
// entries in replay order, the function-pointer domains, and the
// recursion flag. Together with the procedure's transitive IR hash and
// the options fingerprint this identifies the converged summary — the
// paper's observation that a PTF is a pure function of (procedure body,
// input alias pattern) turned into a cache key (see internal/store).
//
// The digest renders block names, never pointers or interned IDs, so it
// is stable across runs of the same engine configuration. It is
// deliberately conservative: a digest mismatch costs a cache miss,
// never a stale entry.
//
// Deprecated: only pta.Result.DomainDigests calls it, for the wlpad
// benchmark's traced replica. ROADMAP item 1's benchmark PR removes it
// together with the replica.
func (a *Analysis) DomainDigests() map[string]string {
	out := make(map[string]string)
	for proc, l := range a.ptfs {
		if len(l) == 0 {
			continue
		}
		doms := make([]string, 0, len(l))
		for _, p := range l {
			doms = append(doms, p.renderDomain())
		}
		sort.Strings(doms)
		h := sha256.New()
		fmt.Fprintf(h, "wlpa/domain/v1 %s %d\n", proc.Name, len(doms))
		for _, d := range doms {
			fmt.Fprintf(h, "%d:%s", len(d), d)
		}
		out[proc.Name] = hex.EncodeToString(h.Sum(nil))
	}
	return out
}

// renderDomain renders one PTF's input domain deterministically.
func (p *PTF) renderDomain() string {
	var b strings.Builder
	for _, e := range p.initial {
		switch e.kind {
		case ptrInitEntry:
			val := "<empty>"
			if e.val.Base != nil {
				val = e.val.String()
			}
			fmt.Fprintf(&b, "ptr %s = %s empty=%v\n", e.ptr.String(), val, e.valEmpty)
		case globalRefEntry:
			name := "<nil>"
			if e.sym != nil {
				name = e.sym.Name
			}
			pname := "<nil>"
			if e.param != nil {
				pname = e.param.Name
			}
			fmt.Fprintf(&b, "global %s param %s\n", name, pname)
		}
	}
	var fps []string
	for blk, syms := range p.fpDomain {
		var names []string
		for s := range syms {
			names = append(names, s.Name)
		}
		sort.Strings(names)
		fps = append(fps, fmt.Sprintf("fp %s -> {%s}", blk.Name, strings.Join(names, ",")))
	}
	sort.Strings(fps)
	for _, l := range fps {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "recursive=%v nparams=%d\n", p.recursive, len(p.params))
	return b.String()
}
