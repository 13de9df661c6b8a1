package core

import (
	"fmt"

	"treeclock/internal/vt"
)

// Validate checks every structural invariant of the tree clock and
// returns a descriptive error for the first violation. It is O(k) and
// intended for tests (model-based and differential suites call it after
// every operation).
//
// Invariants:
//  1. An empty clock has no present nodes.
//  2. The root is present with parent == none.
//  3. Every present node is reachable from the root exactly once, and
//     no absent node appears in any child list (no cycles, no leaks).
//  4. Child lists are consistent doubly-linked lists whose parent
//     pointers match.
//  5. Child lists are sorted by non-increasing attachment time, and no
//     attachment time exceeds the parent's current local time.
//  6. Absent nodes carry a zero local time (Get must report 0) and no
//     links, so attaching one never brings stale children along.
func (c *TreeClock) Validate() error {
	present := 0
	for t := int32(0); t < c.k; t++ {
		s := &c.sh[t]
		if s.par != notIn {
			present++
		} else if c.clk[t] != 0 {
			return fmt.Errorf("absent thread %d has nonzero clk %d", t, c.clk[t])
		} else if s.head != none || s.nxt != none || s.prv != none {
			return fmt.Errorf("absent thread %d has links (head %d, nxt %d, prv %d)", t, s.head, s.nxt, s.prv)
		}
	}
	if present != int(c.nodes) {
		return fmt.Errorf("incremental node count %d, but %d nodes present", c.nodes, present)
	}
	if c.root == none {
		if present != 0 {
			return fmt.Errorf("empty clock has %d present nodes", present)
		}
		return nil
	}
	if c.sh[c.root].par != none {
		return fmt.Errorf("root %d has parent %d", c.root, c.sh[c.root].par)
	}
	seen := make([]bool, c.k)
	stack := []vt.TID{c.root}
	visited := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[u] {
			return fmt.Errorf("thread %d reached twice (cycle or shared child)", u)
		}
		seen[u] = true
		visited++
		if visited > int(c.k) {
			return fmt.Errorf("traversal exceeded %d nodes (cycle)", c.k)
		}
		prev := none
		var prevAclk vt.Time
		for v := c.sh[u].head; v != none; v = c.sh[v].nxt {
			if v < 0 {
				return fmt.Errorf("child list of %d holds link %d", u, v)
			}
			if c.sh[v].par == notIn {
				return fmt.Errorf("absent thread %d linked as child of %d", v, u)
			}
			if c.sh[v].par != u {
				return fmt.Errorf("child %d of %d has parent %d", v, u, c.sh[v].par)
			}
			if c.sh[v].prv != prev {
				return fmt.Errorf("child %d of %d has prv %d, want %d", v, u, c.sh[v].prv, prev)
			}
			if v == c.root {
				return fmt.Errorf("root %d appears in child list of %d", v, u)
			}
			if prev != none && c.sh[v].aclk > prevAclk {
				return fmt.Errorf("children of %d not in descending aclk order: %d (aclk %d) after %d (aclk %d)",
					u, v, c.sh[v].aclk, prev, prevAclk)
			}
			if c.sh[v].aclk > c.clk[u] {
				return fmt.Errorf("child %d of %d attached at %d, beyond parent clock %d",
					v, u, c.sh[v].aclk, c.clk[u])
			}
			prev, prevAclk = v, c.sh[v].aclk
			stack = append(stack, v)
		}
	}
	if visited != present {
		return fmt.Errorf("%d nodes present but %d reachable from root", present, visited)
	}
	return nil
}
