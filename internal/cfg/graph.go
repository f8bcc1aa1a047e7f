package cfg

import (
	"fmt"

	"wlpa/internal/cast"
	"wlpa/internal/ctok"
)

// NodeKind classifies flow-graph nodes.
type NodeKind int

const (
	// EntryNode is the unique procedure entry.
	EntryNode NodeKind = iota
	// ExitNode is the unique procedure exit.
	ExitNode
	// AssignNode is a pointer-form assignment.
	AssignNode
	// CallNode is a procedure call.
	CallNode
	// MeetNode is a control-flow join; the analysis inserts
	// φ-functions here dynamically (paper §4.2).
	MeetNode
)

var nodeKindNames = [...]string{"entry", "exit", "assign", "call", "meet"}

func (k NodeKind) String() string { return nodeKindNames[k] }

// Node is a flow-graph node.
type Node struct {
	ID   int
	Kind NodeKind
	Pos  ctok.Pos

	Preds []*Node
	Succs []*Node

	// AssignNode: Dst is the destination location expression, Src the
	// source value expression (already carrying the extra dereference
	// of points-to form). Size is the assigned size in bytes;
	// Aggregate marks a block copy, in which case Src denotes the
	// source *locations* rather than values.
	Dst       *Expr
	Src       *Expr
	Size      int64
	Aggregate bool

	// CallNode: Direct is the callee for direct calls; Fun is the
	// function-pointer value expression for indirect calls. Args holds
	// the value expressions of the actuals; RetDst (may be nil) is the
	// destination location expression for the return value.
	Direct *cast.Symbol
	Fun    *Expr
	Args   []*Expr
	RetDst *Expr

	// RPO is the node's reverse-postorder index within its procedure.
	RPO int

	// Idom is the immediate dominator (nil for entry).
	Idom *Node
	// DomPre/DomPost are Euler-tour numbers of the dominator tree,
	// giving O(1) "a dominates b" tests.
	DomPre, DomPost int
	// DF is the dominance frontier.
	DF []*Node
}

// Dominates reports whether n dominates m (reflexive).
func (n *Node) Dominates(m *Node) bool {
	return n.DomPre <= m.DomPre && m.DomPost <= n.DomPost
}

func (n *Node) String() string {
	switch n.Kind {
	case AssignNode:
		return fmt.Sprintf("n%d: %s = %s", n.ID, n.Dst, n.Src)
	case CallNode:
		if n.Direct != nil {
			return fmt.Sprintf("n%d: call %s", n.ID, n.Direct.Name)
		}
		return fmt.Sprintf("n%d: call %s", n.ID, n.Fun)
	default:
		return fmt.Sprintf("n%d: %s", n.ID, n.Kind)
	}
}

// Proc is a procedure's flow graph.
type Proc struct {
	Fn    *cast.FuncDecl
	Name  string
	Entry *Node
	Exit  *Node
	// Nodes in reverse postorder (Entry first). Unreachable nodes are
	// pruned.
	Nodes []*Node

	// Retval is the special local symbol holding the return value.
	Retval *cast.Symbol

	// Locals lists the local variables (including compiler temps).
	Locals []*cast.Symbol

	// NumCalls counts call nodes (used by statistics).
	NumCalls int
}

func newNode(kind NodeKind) *Node { return &Node{Kind: kind} }

func link(a, b *Node) {
	a.Succs = append(a.Succs, b)
	b.Preds = append(b.Preds, a)
}

// finish prunes unreachable nodes, computes reverse postorder, dominator
// tree and dominance frontiers.
func (p *Proc) finish() {
	// Depth-first search from entry for reachability and postorder.
	// DomPre doubles as the visited flag: it is zero on fresh nodes and
	// overwritten by the Euler numbering below, so no side table is
	// needed.
	var post []*Node
	var dfs func(n *Node)
	dfs = func(n *Node) {
		n.DomPre = 1
		for _, s := range n.Succs {
			if s.DomPre == 0 {
				dfs(s)
			}
		}
		post = append(post, n)
	}
	dfs(p.Entry)
	// Ensure the exit node is present even if unreachable (infinite
	// loops): it then has no preds and the analysis never evaluates it.
	if p.Exit.DomPre == 0 {
		post = append([]*Node{p.Exit}, post...)
	}
	// Remove unreachable preds.
	n := len(post)
	p.Nodes = make([]*Node, n)
	for i, nd := range post {
		p.Nodes[n-1-i] = nd
	}
	for i, nd := range p.Nodes {
		nd.RPO = i
		nd.ID = i
		live := nd.Preds[:0]
		for _, pr := range nd.Preds {
			if pr.DomPre != 0 {
				live = append(live, pr)
			}
		}
		nd.Preds = live
		if nd.Kind == CallNode {
			p.NumCalls++
		}
	}
	p.computeDominators()
	p.computeDomFrontiers()
}

// computeDominators uses the Cooper–Harvey–Kennedy iterative algorithm
// over reverse postorder.
func (p *Proc) computeDominators() {
	entry := p.Entry
	entry.Idom = nil
	intersect := func(a, b *Node) *Node {
		for a != b {
			for a.RPO > b.RPO {
				a = a.Idom
			}
			for b.RPO > a.RPO {
				b = b.Idom
			}
		}
		return a
	}
	changed := true
	for changed {
		changed = false
		for _, nd := range p.Nodes {
			if nd == entry {
				continue
			}
			var newIdom *Node
			for _, pred := range nd.Preds {
				if pred == entry || pred.Idom != nil {
					if newIdom == nil {
						newIdom = pred
					} else {
						newIdom = intersect(pred, newIdom)
					}
				}
			}
			if newIdom != nil && nd.Idom != newIdom {
				nd.Idom = newIdom
				changed = true
			}
		}
	}
	// Euler numbering of the dominator tree for O(1) ancestry tests.
	// Child lists are packed into one buffer by a count/fill pass over
	// the (already ID-numbered) nodes instead of a map of slices.
	n := len(p.Nodes)
	childStart := make([]int, n+1)
	for _, nd := range p.Nodes {
		if nd.Idom != nil {
			childStart[nd.Idom.ID+1]++
		}
	}
	for i := 0; i < n; i++ {
		childStart[i+1] += childStart[i]
	}
	childBuf := make([]*Node, childStart[n])
	cursor := make([]int, n)
	copy(cursor, childStart[:n])
	for _, nd := range p.Nodes {
		if nd.Idom != nil {
			id := nd.Idom.ID
			childBuf[cursor[id]] = nd
			cursor[id]++
		}
	}
	clock := 0
	var number func(n *Node)
	number = func(nd *Node) {
		clock++
		nd.DomPre = clock
		for _, c := range childBuf[childStart[nd.ID]:childStart[nd.ID+1]] {
			number(c)
		}
		clock++
		nd.DomPost = clock
	}
	number(entry)
}

// computeDomFrontiers computes dominance frontiers (Cytron et al.).
func (p *Proc) computeDomFrontiers() {
	for _, nd := range p.Nodes {
		if len(nd.Preds) < 2 {
			continue
		}
		for _, pred := range nd.Preds {
			runner := pred
			for runner != nil && runner != nd.Idom {
				runner.DF = appendUnique(runner.DF, nd)
				runner = runner.Idom
			}
		}
	}
}

func appendUnique(list []*Node, n *Node) []*Node {
	for _, e := range list {
		if e == n {
			return list
		}
	}
	return append(list, n)
}
