package trace

import (
	"fmt"
	"strings"

	"repro/internal/vm"
)

// Tree reconstructs the execution tree of explored paths from a set of
// traces (§3.5: "each branch instruction has a flag indicating whether it
// forked execution or not, thus enabling DDT to subsequently reconstruct an
// execution tree of the explored paths; each node in the tree corresponds
// to a machine state"). Paths that share a prefix share tree nodes; each
// leaf is one trace's failure.
type Tree struct {
	Root *TreeNode
	// Paths is the number of traces merged in.
	Paths int
}

// TreeNode is one machine state in the reconstructed tree.
type TreeNode struct {
	// Event is the control event at this node (entry, branch, interrupt,
	// API call, annotation decision, scenario-edge choice, bug).
	Event Record
	// Children are the continuations; >1 means execution forked here.
	Children []*TreeNode
	// Leaf marks a failure endpoint, with the owning trace's bug.
	Leaf *BugRecord
}

// controlKinds are the events that shape the tree (block/memory events are
// too fine-grained to display).
func isControl(k vm.EventKind) bool {
	switch k {
	case vm.EvEntry, vm.EvAPICall, vm.EvInterrupt, vm.EvAltFork, vm.EvRoute, vm.EvBug:
		return true
	case vm.EvBranch:
		return true
	}
	return false
}

// BuildTree merges traces into an execution tree.
func BuildTree(files []*File) *Tree {
	root := &TreeNode{}
	for _, f := range files {
		cur := root
		for _, r := range f.Events {
			k := vm.EventKind(r.Kind)
			if !isControl(k) {
				continue
			}
			// Branches only matter for the tree when they forked.
			if k == vm.EvBranch && !r.Forked {
				continue
			}
			cur = cur.child(r)
		}
		bug := f.Bug
		cur.Leaf = &bug
	}
	return &Tree{Root: root, Paths: len(files)}
}

// child finds or creates the continuation matching event r.
func (n *TreeNode) child(r Record) *TreeNode {
	for _, c := range n.Children {
		if sameEvent(c.Event, r) {
			return c
		}
	}
	c := &TreeNode{Event: r}
	n.Children = append(n.Children, c)
	return c
}

func sameEvent(a, b Record) bool {
	return a.Kind == b.Kind && a.Seq == b.Seq && a.PC == b.PC &&
		a.Name == b.Name && a.Taken == b.Taken && a.Forked == b.Forked &&
		a.Addr == b.Addr
}

// Leaves returns the bug endpoints in depth-first order.
func (t *Tree) Leaves() []BugRecord {
	var out []BugRecord
	var walk func(n *TreeNode)
	walk = func(n *TreeNode) {
		if n.Leaf != nil {
			out = append(out, *n.Leaf)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return out
}

// ForkPoints counts the internal nodes with more than one continuation —
// the states where the merged paths diverged.
func (t *Tree) ForkPoints() int {
	n := 0
	var walk func(node *TreeNode)
	walk = func(node *TreeNode) {
		if len(node.Children) > 1 {
			n++
		}
		for _, c := range node.Children {
			walk(c)
		}
	}
	walk(t.Root)
	return n
}

// Render draws the tree as indented text, the §3.5 post-processing view:
// unwinding each leaf's path to the root, with shared prefixes shown once.
func (t *Tree) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "execution tree: %d path(s), %d fork point(s)\n", t.Paths, t.ForkPoints())
	var walk func(n *TreeNode, depth int)
	walk = func(n *TreeNode, depth int) {
		indent := strings.Repeat("  ", depth)
		if n.Event.Kind != 0 || n.Event.PC != 0 || n.Event.Name != "" {
			k := vm.EventKind(n.Event.Kind)
			switch k {
			case vm.EvEntry:
				fmt.Fprintf(&b, "%sentry %s\n", indent, n.Event.Name)
			case vm.EvAPICall:
				fmt.Fprintf(&b, "%scall %s\n", indent, n.Event.Name)
			case vm.EvBranch:
				dir := "not-taken"
				if n.Event.Taken {
					dir = "taken"
				}
				fmt.Fprintf(&b, "%sfork @%#x (%s)\n", indent, n.Event.PC, dir)
			case vm.EvInterrupt:
				fmt.Fprintf(&b, "%s** interrupt injected @%#x\n", indent, n.Event.PC)
			case vm.EvAltFork:
				if n.Event.Forked {
					fmt.Fprintf(&b, "%s** %s failure alternative\n", indent, n.Event.Name)
				} else {
					fmt.Fprintf(&b, "%s%s primary outcome\n", indent, n.Event.Name)
				}
			case vm.EvRoute:
				fmt.Fprintf(&b, "%sroute -> %s (edge %d of %d)\n", indent, n.Event.Name, n.Event.Addr, n.Event.Size)
			case vm.EvBug:
				fmt.Fprintf(&b, "%sBUG %s\n", indent, n.Event.Name)
			default:
				fmt.Fprintf(&b, "%s%v @%#x\n", indent, k, n.Event.PC)
			}
		}
		if n.Leaf != nil {
			fmt.Fprintf(&b, "%s  => [%s] %s\n", indent, n.Leaf.Class, n.Leaf.Msg)
		}
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return b.String()
}
