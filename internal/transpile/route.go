package transpile

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
)

// Layout maps logical qubits to physical qubits.
type Layout []int

// identityLayout returns [0, 1, …, n-1].
func identityLayout(n int) Layout {
	l := make(Layout, n)
	for i := range l {
		l[i] = i
	}
	return l
}

// coupling is an adjacency view over the context's coupling map.
type coupling struct {
	n   int
	adj map[int][]int
}

func newCoupling(pairs [][2]int, numQubits int) (*coupling, error) {
	c := &coupling{n: numQubits, adj: map[int][]int{}}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if a == b {
			return nil, fmt.Errorf("transpile: coupling self-loop (%d,%d)", a, b)
		}
		if a >= numQubits || b >= numQubits || a < 0 || b < 0 {
			return nil, fmt.Errorf("transpile: coupling pair (%d,%d) outside %d qubits", a, b, numQubits)
		}
		c.adj[a] = append(c.adj[a], b)
		c.adj[b] = append(c.adj[b], a)
	}
	for v := range c.adj {
		sort.Ints(c.adj[v])
	}
	return c, nil
}

func (c *coupling) connected(a, b int) bool {
	for _, v := range c.adj[a] {
		if v == b {
			return true
		}
	}
	return false
}

// shortestPath returns a physical-qubit path from a to b inclusive (BFS),
// or nil if disconnected.
func (c *coupling) shortestPath(a, b int) []int {
	if a == b {
		return []int{a}
	}
	prev := map[int]int{a: -1}
	queue := []int{a}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range c.adj[v] {
			if _, seen := prev[u]; seen {
				continue
			}
			prev[u] = v
			if u == b {
				var path []int
				for x := b; x != -1; x = prev[x] {
					path = append(path, x)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, u)
		}
	}
	return nil
}

// Route inserts SWAPs so every two-qubit gate acts on coupled physical
// qubits. It returns the routed circuit (over physical qubits), the final
// layout, and the number of SWAPs inserted. Gates on three or more qubits
// must be decomposed before routing.
func Route(c *circuit.Circuit, pairs [][2]int) (*circuit.Circuit, Layout, int, error) {
	if len(pairs) == 0 {
		return c.Copy(), identityLayout(c.NumQubits), 0, nil
	}
	coup, err := newCoupling(pairs, c.NumQubits)
	if err != nil {
		return nil, nil, 0, err
	}
	out := circuit.New(c.NumQubits, c.NumClbits)
	layout := identityLayout(c.NumQubits)
	// phys2log is the inverse mapping, kept in sync with layout.
	phys2log := identityLayout(c.NumQubits)
	swaps := 0

	swapPhys := func(p1, p2 int) {
		l1, l2 := phys2log[p1], phys2log[p2]
		layout[l1], layout[l2] = p2, p1
		phys2log[p1], phys2log[p2] = l2, l1
		out.Swap(p1, p2)
		swaps++
	}

	for idx, ins := range c.Instrs {
		switch ins.Op {
		case circuit.OpGate:
			switch len(ins.Qubits) {
			case 1:
				if err := out.Append(circuit.Instruction{Op: circuit.OpGate, Gate: ins.Gate,
					Qubits: []int{layout[ins.Qubits[0]]}, Params: append([]float64(nil), ins.Params...)}); err != nil {
					return nil, nil, 0, err
				}
			case 2:
				a := layout[ins.Qubits[0]]
				b := layout[ins.Qubits[1]]
				if !coup.connected(a, b) {
					path := coup.shortestPath(a, b)
					if path == nil {
						return nil, nil, 0, fmt.Errorf("transpile: instruction %d: physical qubits %d and %d are disconnected in the coupling map", idx, a, b)
					}
					// Move a's logical qubit along the path until adjacent
					// to b.
					for i := 0; i+2 < len(path); i++ {
						swapPhys(path[i], path[i+1])
					}
					a = layout[ins.Qubits[0]]
					b = layout[ins.Qubits[1]]
					if !coup.connected(a, b) {
						return nil, nil, 0, fmt.Errorf("transpile: instruction %d: routing failed to make %d and %d adjacent", idx, a, b)
					}
				}
				if err := out.Append(circuit.Instruction{Op: circuit.OpGate, Gate: ins.Gate,
					Qubits: []int{a, b}, Params: append([]float64(nil), ins.Params...)}); err != nil {
					return nil, nil, 0, err
				}
			default:
				return nil, nil, 0, fmt.Errorf("transpile: instruction %d: %d-qubit gate %q must be decomposed before routing", idx, len(ins.Qubits), ins.Gate)
			}
		case circuit.OpMeasure:
			mapped := circuit.Instruction{Op: circuit.OpMeasure,
				Qubits: make([]int, len(ins.Qubits)), Clbits: append([]int(nil), ins.Clbits...)}
			for i, q := range ins.Qubits {
				mapped.Qubits[i] = layout[q]
			}
			if err := out.Append(mapped); err != nil {
				return nil, nil, 0, err
			}
		case circuit.OpBarrier:
			mapped := circuit.Instruction{Op: circuit.OpBarrier, Qubits: make([]int, len(ins.Qubits))}
			for i, q := range ins.Qubits {
				mapped.Qubits[i] = layout[q]
			}
			if err := out.Append(mapped); err != nil {
				return nil, nil, 0, err
			}
		default:
			return nil, nil, 0, fmt.Errorf("transpile: instruction %d: opcode not routable; decompose first", idx)
		}
	}
	return out, layout, swaps, nil
}
