package cfg

// SCC computes the strongly connected components of a directed graph
// with n vertices 0..n-1 and adjacency function adj, using an iterative
// Tarjan walk (no recursion, safe for deep graphs).
//
// It returns comp, mapping each vertex to its component index, and
// comps, the components themselves. Component indices form a reverse
// topological order of the condensation: every edge u->v with
// comp[u] != comp[v] has comp[u] > comp[v]. Vertices within a component
// appear in discovery order.
//
// internal/irhash condenses the direct call graph with it to compute
// per-procedure closure digests.
func SCC(n int, adj func(int) []int) (comp []int, comps [][]int) {
	comp = make([]int, n)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
		comp[i] = -1
	}
	var stack []int // Tarjan stack of vertices in open components
	next := 1       // next discovery index (0 means unvisited via -1 sentinel)

	// Explicit DFS frame: vertex plus position in its adjacency list.
	type dfsFrame struct {
		v  int
		ai int
	}
	var dfs []dfsFrame

	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		dfs = append(dfs[:0], dfsFrame{v: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(dfs) > 0 {
			fr := &dfs[len(dfs)-1]
			v := fr.v
			a := adj(v)
			if fr.ai < len(a) {
				w := a[fr.ai]
				fr.ai++
				if index[w] == -1 {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					dfs = append(dfs, dfsFrame{v: w})
				} else if onStack[w] && index[w] < low[v] {
					low[v] = index[w]
				}
				continue
			}
			// v is finished: pop its frame, propagate its lowlink, and
			// close a component if v is a root.
			dfs = dfs[:len(dfs)-1]
			if len(dfs) > 0 {
				p := &dfs[len(dfs)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				var c []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = len(comps)
					c = append(c, w)
					if w == v {
						break
					}
				}
				// Tarjan pops in reverse discovery order; restore it.
				for i, j := 0, len(c)-1; i < j; i, j = i+1, j-1 {
					c[i], c[j] = c[j], c[i]
				}
				comps = append(comps, c)
			}
		}
	}
	return comp, comps
}
