// Package embed implements hardware graphs and minor embedding for the
// annealing path: the step the D-Wave Ocean stack performs implicitly
// when a logical Ising problem's connectivity exceeds the physical
// topology.
//
// The hardware family is the Chimera graph C(m): an m×m grid of K_{4,4}
// unit cells with vertical couplers between same-index left-side qubits of
// vertically adjacent cells and horizontal couplers between same-index
// right-side qubits of horizontally adjacent cells. Embedding maps each
// logical variable to a connected *chain* of physical qubits held together
// by a strong ferromagnetic coupling; unembedding majority-votes each
// chain back to one spin.
package embed

import (
	"fmt"
	"sort"

	"repro/internal/ising"
)

// Hardware is an undirected physical-qubit graph.
type Hardware struct {
	N   int
	adj [][]int
}

// Adjacent reports whether physical qubits a and b are coupled.
func (h *Hardware) Adjacent(a, b int) bool {
	for _, v := range h.adj[a] {
		if v == b {
			return true
		}
	}
	return false
}

// Neighbors returns the sorted coupler list of physical qubit p.
func (h *Hardware) Neighbors(p int) []int { return h.adj[p] }

// Degree returns the coupler count of p.
func (h *Hardware) Degree(p int) int { return len(h.adj[p]) }

// EdgeCount returns the total number of couplers.
func (h *Hardware) EdgeCount() int {
	total := 0
	for _, ns := range h.adj {
		total += len(ns)
	}
	return total / 2
}

// Chimera returns C(m): m×m unit cells of K_{4,4}, 8m² qubits.
// Qubit id layout: ((row·m)+col)·8 + side·4 + index, side 0 = left
// (vertically linked), side 1 = right (horizontally linked).
func Chimera(m int) (*Hardware, error) {
	if m < 1 {
		return nil, fmt.Errorf("embed: chimera grid size %d < 1", m)
	}
	n := 8 * m * m
	h := &Hardware{N: n, adj: make([][]int, n)}
	id := func(row, col, side, idx int) int { return ((row*m)+col)*8 + side*4 + idx }
	addEdge := func(a, b int) {
		h.adj[a] = append(h.adj[a], b)
		h.adj[b] = append(h.adj[b], a)
	}
	for row := 0; row < m; row++ {
		for col := 0; col < m; col++ {
			// Intra-cell K_{4,4}.
			for i := 0; i < 4; i++ {
				for j := 0; j < 4; j++ {
					addEdge(id(row, col, 0, i), id(row, col, 1, j))
				}
			}
			// Vertical couplers (left side).
			if row+1 < m {
				for i := 0; i < 4; i++ {
					addEdge(id(row, col, 0, i), id(row+1, col, 0, i))
				}
			}
			// Horizontal couplers (right side).
			if col+1 < m {
				for i := 0; i < 4; i++ {
					addEdge(id(row, col, 1, i), id(row, col+1, 1, i))
				}
			}
		}
	}
	for v := range h.adj {
		sort.Ints(h.adj[v])
	}
	return h, nil
}

// Complete returns an all-to-all hardware graph (embedding on it is the
// identity).
func Complete(n int) *Hardware {
	h := &Hardware{N: n, adj: make([][]int, n)}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				h.adj[i] = append(h.adj[i], j)
			}
		}
	}
	return h
}

// Embedding maps logical variables to chains of physical qubits.
type Embedding struct {
	Chains [][]int // Chains[v] = physical qubits of logical v
	HW     *Hardware
}

// Validate checks chain disjointness, chain connectivity, and that every
// logical coupling has at least one physical coupler between its chains.
func (e *Embedding) Validate(m *ising.Model) error {
	owner := map[int]int{}
	for v, chain := range e.Chains {
		if len(chain) == 0 {
			return fmt.Errorf("embed: variable %d has an empty chain", v)
		}
		for _, p := range chain {
			if p < 0 || p >= e.HW.N {
				return fmt.Errorf("embed: variable %d uses nonexistent qubit %d", v, p)
			}
			if prev, taken := owner[p]; taken {
				return fmt.Errorf("embed: qubit %d shared by variables %d and %d", p, prev, v)
			}
			owner[p] = v
		}
		if !e.chainConnected(chain) {
			return fmt.Errorf("embed: variable %d chain %v is not connected", v, chain)
		}
	}
	for c := range m.Couplings() {
		if !e.chainsCoupled(c.I, c.J) {
			return fmt.Errorf("embed: logical coupling (%d,%d) has no physical coupler", c.I, c.J)
		}
	}
	return nil
}

func (e *Embedding) chainConnected(chain []int) bool {
	if len(chain) == 1 {
		return true
	}
	in := map[int]bool{}
	for _, p := range chain {
		in[p] = true
	}
	seen := map[int]bool{chain[0]: true}
	stack := []int{chain[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range e.HW.Neighbors(v) {
			if in[u] && !seen[u] {
				seen[u] = true
				stack = append(stack, u)
			}
		}
	}
	return len(seen) == len(chain)
}

func (e *Embedding) chainsCoupled(a, b int) bool {
	for _, p := range e.Chains[a] {
		for _, q := range e.Chains[b] {
			if e.HW.Adjacent(p, q) {
				return true
			}
		}
	}
	return false
}

// MaxChainLength returns the longest chain.
func (e *Embedding) MaxChainLength() int {
	max := 0
	for _, c := range e.Chains {
		if len(c) > max {
			max = len(c)
		}
	}
	return max
}

// PhysicalQubits returns the total number of physical qubits used.
func (e *Embedding) PhysicalQubits() int {
	total := 0
	for _, c := range e.Chains {
		total += len(c)
	}
	return total
}

// Find greedily embeds the model's coupling graph into hw: variables are
// placed in descending-degree order; each new variable's chain is grown
// from shortest physical paths to every already-placed neighbor chain
// (a minorminer-style heuristic, adequate for the benchmark scales).
func Find(m *ising.Model, hw *Hardware) (*Embedding, error) {
	n := m.N
	if n == 0 {
		return nil, fmt.Errorf("embed: empty model")
	}
	// Logical adjacency: the model's coupling rows.
	degree := func(v int) int { nbr, _ := m.Row(v); return len(nbr) }
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return degree(order[a]) > degree(order[b]) })

	used := make([]bool, hw.N)
	chains := make([][]int, n)

	for _, v := range order {
		// Collect placed neighbors.
		var placed []int
		nbr, _ := m.Row(v)
		for _, u := range nbr {
			if chains[u] != nil {
				placed = append(placed, int(u))
			}
		}
		if len(placed) == 0 {
			// First placement: pick the free qubit with the most free
			// neighbors.
			best, bestScore := -1, -1
			for p := 0; p < hw.N; p++ {
				if used[p] {
					continue
				}
				score := 0
				for _, q := range hw.Neighbors(p) {
					if !used[q] {
						score++
					}
				}
				if score > bestScore {
					best, bestScore = p, score
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("embed: no free qubits for variable %d", v)
			}
			chains[v] = []int{best}
			used[best] = true
			continue
		}
		// Multi-source BFS from each placed neighbor chain through free
		// qubits; choose a root minimizing total distance, then build the
		// chain from the union of the paths.
		dist := make([][]int, len(placed))
		prev := make([][]int, len(placed))
		for i, u := range placed {
			dist[i], prev[i] = bfsFrom(hw, chains[u], used)
		}
		bestRoot, bestTotal := -1, 1<<30
		for p := 0; p < hw.N; p++ {
			if used[p] {
				continue
			}
			total := 0
			ok := true
			for i := range placed {
				if dist[i][p] < 0 {
					ok = false
					break
				}
				total += dist[i][p]
			}
			if ok && total < bestTotal {
				bestRoot, bestTotal = p, total
			}
		}
		if bestRoot < 0 {
			return nil, fmt.Errorf("embed: cannot connect variable %d to its neighbors; hardware too small or fragmented", v)
		}
		chainSet := map[int]bool{bestRoot: true}
		for i := range placed {
			// Walk back from root toward the source chain; stop before
			// entering it (the path's first element belongs to the
			// neighbor chain).
			for p := bestRoot; ; {
				pr := prev[i][p]
				if pr < 0 {
					break
				}
				if used[pr] {
					break // reached the neighbor chain
				}
				chainSet[pr] = true
				p = pr
			}
		}
		chain := make([]int, 0, len(chainSet))
		for p := range chainSet {
			chain = append(chain, p)
		}
		sort.Ints(chain)
		chains[v] = chain
		for _, p := range chain {
			used[p] = true
		}
	}
	e := &Embedding{Chains: chains, HW: hw}
	if err := e.Validate(m); err != nil {
		return nil, fmt.Errorf("embed: heuristic produced an invalid embedding: %w", err)
	}
	return e, nil
}

// bfsFrom runs BFS from every qubit of a source chain through free qubits
// (the chain's own qubits are sources at distance 0; other used qubits are
// walls). dist[p] = -1 when unreachable; prev[p] walks back toward the
// chain.
func bfsFrom(hw *Hardware, chain []int, used []bool) (dist, prev []int) {
	dist = make([]int, hw.N)
	prev = make([]int, hw.N)
	for i := range dist {
		dist[i] = -1
		prev[i] = -1
	}
	queue := make([]int, 0, len(chain))
	for _, p := range chain {
		dist[p] = 0
		queue = append(queue, p)
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range hw.Neighbors(v) {
			if dist[u] >= 0 {
				continue
			}
			if used[u] && dist[v] > 0 {
				continue // only step off the source chain into free qubits
			}
			if used[u] && !contains(chain, u) {
				continue
			}
			dist[u] = dist[v] + 1
			prev[u] = v
			queue = append(queue, u)
		}
	}
	return dist, prev
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// EmbedModel produces the physical Ising model: each logical coupling is
// placed on one physical coupler between the chains, each logical field is
// spread across its chain, and chain links get ferromagnetic coupling
// −chainStrength. chainStrength 0 defaults to 2·max|J,h| + 1.
func (e *Embedding) EmbedModel(m *ising.Model, chainStrength float64) (*ising.Model, error) {
	if err := e.Validate(m); err != nil {
		return nil, err
	}
	if chainStrength == 0 {
		chainStrength = 2*m.MaxAbsCoupling() + 1
	}
	if chainStrength < 0 {
		return nil, fmt.Errorf("embed: negative chain strength %v", chainStrength)
	}
	// Logical couplings on one physical coupler each.
	var terms []ising.Term
	for c := range m.Couplings() {
		placed := false
		for _, p := range e.Chains[c.I] {
			for _, q := range e.Chains[c.J] {
				if e.HW.Adjacent(p, q) {
					terms = append(terms, ising.Term{I: p, J: q, V: c.V})
					placed = true
					break
				}
			}
			if placed {
				break
			}
		}
	}
	// Ferromagnetic chain links along a spanning tree of each chain
	// (every intra-chain physical coupler gets the link; simpler and
	// stronger).
	for _, chain := range e.Chains {
		for i, p := range chain {
			for _, q := range chain[i+1:] {
				if e.HW.Adjacent(p, q) {
					terms = append(terms, ising.Term{I: p, J: q, V: -chainStrength})
				}
			}
		}
	}
	phys := ising.New(e.HW.N, terms)
	// Fields spread across chains.
	for v, chain := range e.Chains {
		per := m.H[v] / float64(len(chain))
		for _, p := range chain {
			phys.H[p] += per
		}
	}
	return phys, nil
}

// Unembed maps a physical configuration back to logical spins by majority
// vote within each chain (ties break to +1) and reports how many chains
// were broken (not unanimous).
func (e *Embedding) Unembed(physMask uint64) (logical uint64, brokenChains int) {
	for v, chain := range e.Chains {
		up := 0
		for _, p := range chain {
			if physMask>>uint(p)&1 == 1 {
				up++
			}
		}
		if up*2 >= len(chain) {
			logical |= 1 << uint(v)
		}
		if up != 0 && up != len(chain) {
			brokenChains++
		}
	}
	return logical, brokenChains
}
