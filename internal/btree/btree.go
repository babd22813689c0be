// Package btree implements a paged B-tree (CLRS-style, minimum degree t) over
// an abstract NodeStore. All keys at this layer are substituted search keys
// (see internal/keysub); the tree orders, traverses, splits, and merges on
// substituted bytes only and never observes a plaintext key. Persistence and
// encipherment live behind NodeStore, so the same tree code runs over any
// store/cipher combination.
//
// Each mutation descends from the root once, by one rule. Put splits a full
// child before entering it and then searches the node again, which now holds
// the raised separator. Delete fills a child to t keys before entering it:
// a sibling that can spare an entry gives one through their separator
// (rotate), the left sibling first, else the child merges with a sibling.
// A key Delete meets in an index node is replaced by its predecessor once the
// child to its left is filled, so every entry leaves the tree from a leaf.
package btree

import (
	"bytes"
	"fmt"

	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// NodeStore reads and writes B-tree nodes by page ID. The façade implements
// it by composing node encoding, node encipherment, and a PageStore.
//
// Nodes are copy-on-write. The tree never alters a node it got from Read —
// not a slice element, not a length — and reads one only through its
// accessors (Len, Key, Value, Child, Search), since Read may hand out a view
// of the page whose Keys, Values and Children are empty. Before changing a
// page it asks for the page's private, materialised copy (Editor.Edit),
// changes that through its fields, and hands it to Write; any pointer to the
// page it took before the Edit is stale afterwards and is re-taken. A node the
// tree builds itself for a page it just Alloc'd is private from birth.
//
// The tree Reads a page before Editing, Writing or Freeing it (every mutation
// descends to its leaf through Read, and splits/merges only rewrite pages on
// that path), and only Writes pages it either Read or just Alloc'd. No store
// relies on that for correctness: the engine's writers take turns, so no
// conflict detection watches a transaction's Reads, and its transaction
// fetches the pre-image of a page it is handed unread.
type NodeStore interface {
	Reader
	Write(id uint64, n *node.Node) error
	Alloc() (uint64, error)
	Free(id uint64) error
	Root() (uint64, error)
	SetRoot(id uint64) error
}

// Editor is the copy-on-write half of the NodeStore contract, implemented by
// every store whose Read returns nodes SHARED with other readers. Edit returns
// the caller's private, materialised copy of page id: it makes one
// (remembering the shared original as the page's pre-image) on the first call
// and returns that same node from every later Edit or Read of id, so it is
// idempotent within a transaction. A NodeStore without Edit declares that
// Read already hands out materialised nodes nobody else can see; the tree
// then mutates those.
type Editor interface {
	Edit(id uint64) (*node.Node, error)
}

// MinDegree is the smallest legal minimum degree t: nodes hold at most 2t-1
// keys and (except the root) at least t-1.
const MinDegree = 2

// Tree is a B-tree of minimum degree t. It is not safe for concurrent use;
// the façade layer serializes access.
type Tree struct {
	st NodeStore
	ed Editor // st's Edit; nil when st's Read returns private nodes
	t  int
}

// New returns a tree with minimum degree t over st.
func New(st NodeStore, t int) (*Tree, error) {
	if st == nil {
		return nil, fmt.Errorf("btree: nil store")
	}
	if t < MinDegree {
		return nil, fmt.Errorf("btree: degree %d below minimum %d", t, MinDegree)
	}
	ed, _ := st.(Editor)
	return &Tree{st: st, ed: ed, t: t}, nil
}

// edit returns the private, mutable copy of page id.
func (tr *Tree) edit(id uint64) (*node.Node, error) {
	if tr.ed == nil {
		return tr.st.Read(id)
	}
	return tr.ed.Edit(id)
}

func (tr *Tree) maxKeys() int { return 2*tr.t - 1 }

// isNoOpPut reports whether key already holds exactly value somewhere in the
// subtree rooted at n. The insert path checks this before a preemptive split:
// an overwrite that changes nothing must not restructure (or rewrite) the
// tree. The extra descent is read-only and touches only nodes the insert
// would read anyway.
func (tr *Tree) isNoOpPut(n *node.Node, key, value []byte) (bool, error) {
	v, ok, err := lookupFrom(tr.st, n, key)
	if err != nil {
		return false, err
	}
	return ok && bytes.Equal(v, value), nil
}

// Put inserts key with value, replacing any existing value.
func (tr *Tree) Put(key, value []byte) error {
	rootID, err := tr.st.Root()
	if err != nil {
		return err
	}
	if rootID == store.NoRoot {
		id, err := tr.st.Alloc()
		if err != nil {
			return err
		}
		n := node.New(true, 1)
		n.Keys, n.Values = append(n.Keys, key), append(n.Values, value)
		if err := tr.st.Write(id, n); err != nil {
			return err
		}
		return tr.st.SetRoot(id)
	}
	root, err := tr.st.Read(rootID)
	if err != nil {
		return err
	}
	if root.Len() == tr.maxKeys() {
		if noop, err := tr.isNoOpPut(root, key, value); err != nil || noop {
			return err
		}
		newRootID, err := tr.st.Alloc()
		if err != nil {
			return err
		}
		newRoot := node.New(false, 1)
		newRoot.Children = append(newRoot.Children, rootID)
		if err := tr.splitChild(newRootID, newRoot, 0); err != nil {
			return err
		}
		if err := tr.st.SetRoot(newRootID); err != nil {
			return err
		}
		rootID, root = newRootID, newRoot
	}
	return tr.insertNonFull(rootID, root, key, value)
}

// splitChild splits the full child at index i of parent p, writing the two
// halves and the parent. p is the caller's private copy of page pid.
func (tr *Tree) splitChild(pid uint64, p *node.Node, i int) error {
	childID := p.Children[i]
	c, err := tr.st.Read(childID)
	if err != nil {
		return err
	}
	t := tr.t
	if c.Len() != tr.maxKeys() {
		return fmt.Errorf("btree: splitting non-full node %d", childID)
	}
	if c, err = tr.edit(childID); err != nil {
		return err
	}
	sibID, err := tr.st.Alloc()
	if err != nil {
		return err
	}
	sib := node.New(c.Leaf, t)
	sib.Keys = append(sib.Keys, c.Keys[t:]...)
	sib.Values = append(sib.Values, c.Values[t:]...)
	if !c.Leaf {
		sib.Children = append(sib.Children, c.Children[t:]...)
	}
	midKey, midVal := c.Keys[t-1], c.Values[t-1]
	c.Keys = c.Keys[:t-1]
	c.Values = c.Values[:t-1]
	if !c.Leaf {
		c.Children = c.Children[:t]
	}
	p.Keys = insertBytes(p.Keys, i, midKey)
	p.Values = insertBytes(p.Values, i, midVal)
	p.Children = insertID(p.Children, i+1, sibID)
	if err := tr.st.Write(childID, c); err != nil {
		return err
	}
	if err := tr.st.Write(sibID, sib); err != nil {
		return err
	}
	return tr.st.Write(pid, p)
}

// insertNonFull inserts into the subtree rooted at a node known to be
// non-full, Editing only the pages it changes.
func (tr *Tree) insertNonFull(id uint64, n *node.Node, key, value []byte) error {
	for {
		i, eq := n.Search(key)
		if eq {
			if bytes.Equal(n.Value(i), value) {
				// Identical entry already present: nothing to mutate, so
				// nothing to re-seal or commit.
				return nil
			}
			return tr.setValue(id, i, value)
		}
		if n.Leaf {
			n, err := tr.edit(id)
			if err != nil {
				return err
			}
			n.Keys = insertBytes(n.Keys, i, key)
			n.Values = insertBytes(n.Values, i, value)
			return tr.st.Write(id, n)
		}
		childID := n.Child(i)
		c, err := tr.st.Read(childID)
		if err != nil {
			return err
		}
		if c.Len() == tr.maxKeys() {
			if noop, err := tr.isNoOpPut(c, key, value); err != nil || noop {
				return err
			}
			if n, err = tr.edit(id); err != nil {
				return err
			}
			if err := tr.splitChild(id, n, i); err != nil {
				return err
			}
			continue // the split raised a separator into n; search n again.
		}
		id, n = childID, c
	}
}

// setValue overwrites the value of entry i of page id.
func (tr *Tree) setValue(id uint64, i int, value []byte) error {
	n, err := tr.edit(id)
	if err != nil {
		return err
	}
	n.Values[i] = value
	return tr.st.Write(id, n)
}

// Delete removes key, reporting whether it was present.
func (tr *Tree) Delete(key []byte) (bool, error) {
	rootID, err := tr.st.Root()
	if err != nil {
		return false, err
	}
	if rootID == store.NoRoot {
		return false, nil
	}
	root, err := tr.st.Read(rootID)
	if err != nil {
		return false, err
	}
	deleted, err := tr.delete(rootID, root, key)
	if err != nil || !deleted {
		return deleted, err
	}
	// Collapse the root if deletion emptied it: an empty internal root hands
	// off to its sole child; an empty leaf root means an empty tree. root, as
	// Read above, is either the private copy (current) or the shared original
	// (the page before this deletion, which took at most one key out of it):
	// more than one key either way means not empty, else ask the private copy.
	if root.Len() > 1 {
		return true, nil
	}
	if root, err = tr.edit(rootID); err != nil || len(root.Keys) > 0 {
		return true, err
	}
	if err := tr.st.Free(rootID); err != nil {
		return true, err
	}
	next := store.NoRoot
	if !root.Leaf {
		next = root.Children[0]
	}
	return true, tr.st.SetRoot(next)
}

// delete removes key from the subtree rooted at n (page id) by one rule:
// before descending into a child, fill it to at least t keys, so that every
// node below the root it reaches can lose one. A key met in an index node
// takes the rule one step further: once the child to its left is filled, the
// key is replaced by its predecessor (that child's greatest entry), which is
// then the key deleted below.
func (tr *Tree) delete(id uint64, n *node.Node, key []byte) (bool, error) {
	found := false // key is known to be in the subtree rooted at n
	for {
		i, eq := n.Search(key)
		found = found || eq
		if n.Leaf {
			if !eq {
				return false, nil
			}
			n, err := tr.edit(id)
			if err != nil {
				return false, err
			}
			n.Keys = removeBytes(n.Keys, i)
			n.Values = removeBytes(n.Values, i)
			return true, tr.st.Write(id, n)
		}
		childID := n.Child(i)
		c, err := tr.st.Read(childID)
		if err != nil {
			return false, err
		}
		if c.Len() < tr.t {
			// Deleting an absent key must not restructure the tree: on a miss,
			// check the subtree read-only before filling on the way down.
			if !found {
				if _, ok, err := lookupFrom(tr.st, c, key); err != nil || !ok {
					return false, err
				}
				found = true
			}
			if n, err = tr.edit(id); err != nil {
				return false, err
			}
			if err := tr.fill(id, n, i); err != nil {
				return false, err
			}
			continue // fill rearranged n's keys and children; search n again.
		}
		if eq {
			pk, pv, err := tr.maxEntry(childID)
			if err != nil {
				return false, err
			}
			if n, err = tr.edit(id); err != nil {
				return false, err
			}
			n.Keys[i], n.Values[i] = pk, pv
			if err := tr.st.Write(id, n); err != nil {
				return false, err
			}
			key = pk
		}
		id, n = childID, c
	}
}

// fill brings the child at index i of p (the caller's private copy of page
// pid) from t-1 keys to t or more: a sibling that can spare an entry gives
// one through their separator (rotate), the left sibling asked first; when
// neither can, the child merges with one of them.
func (tr *Tree) fill(pid uint64, p *node.Node, i int) error {
	if i > 0 {
		l, err := tr.st.Read(p.Children[i-1])
		if err != nil {
			return err
		}
		if l.Len() >= tr.t {
			return tr.rotate(pid, p, i-1, false)
		}
	}
	if i == len(p.Keys) {
		return tr.merge(pid, p, i-1)
	}
	r, err := tr.st.Read(p.Children[i+1])
	if err != nil {
		return err
	}
	if r.Len() >= tr.t {
		return tr.rotate(pid, p, i, true)
	}
	return tr.merge(pid, p, i)
}

// rotate moves one entry through separator j of p (the caller's private copy
// of page pid), from one of the two children either side of it to the other:
// toLeft, the right child's least entry goes up, the separator goes down to
// the end of the left child, and the right child's first child follows it;
// otherwise the mirror image, from the left child's greatest entry. Each child
// gains or loses one key; p keeps its count.
func (tr *Tree) rotate(pid uint64, p *node.Node, j int, toLeft bool) error {
	lid, rid := p.Children[j], p.Children[j+1]
	l, err := tr.edit(lid)
	if err != nil {
		return err
	}
	r, err := tr.edit(rid)
	if err != nil {
		return err
	}
	// from and to index the entries facing the separator in the giving and
	// the taking child; cfrom and cto the children beside them.
	src, dst := l, r
	from, to, cfrom, cto := len(l.Keys)-1, 0, len(l.Children)-1, 0
	if toLeft {
		src, dst = r, l
		from, to, cfrom, cto = 0, len(l.Keys), 0, len(l.Children)
	}
	dst.Keys = insertBytes(dst.Keys, to, p.Keys[j])
	dst.Values = insertBytes(dst.Values, to, p.Values[j])
	p.Keys[j], p.Values[j] = src.Keys[from], src.Values[from]
	src.Keys = removeBytes(src.Keys, from)
	src.Values = removeBytes(src.Values, from)
	if !src.Leaf {
		dst.Children = insertID(dst.Children, cto, src.Children[cfrom])
		src.Children = removeID(src.Children, cfrom)
	}
	if err := tr.st.Write(lid, l); err != nil {
		return err
	}
	if err := tr.st.Write(rid, r); err != nil {
		return err
	}
	return tr.st.Write(pid, p)
}

// merge folds separator j of p (the caller's private copy of page pid) and
// the child right of it into the child left of it, freeing the right child.
// Both children hold t-1 keys on entry. The right child is only read, so it
// may be a view and is read through its accessors.
func (tr *Tree) merge(pid uint64, p *node.Node, j int) error {
	lid, rid := p.Children[j], p.Children[j+1]
	left, err := tr.edit(lid)
	if err != nil {
		return err
	}
	right, err := tr.st.Read(rid)
	if err != nil {
		return err
	}
	left.Keys = append(left.Keys, p.Keys[j])
	left.Values = append(left.Values, p.Values[j])
	for k := range right.Len() {
		left.Keys = append(left.Keys, right.Key(k))
		left.Values = append(left.Values, right.Value(k))
	}
	if !left.Leaf {
		for k := range right.Len() + 1 {
			left.Children = append(left.Children, right.Child(k))
		}
	}
	p.Keys = removeBytes(p.Keys, j)
	p.Values = removeBytes(p.Values, j)
	p.Children = removeID(p.Children, j+1)
	if err := tr.st.Write(lid, left); err != nil {
		return err
	}
	if err := tr.st.Write(pid, p); err != nil {
		return err
	}
	return tr.st.Free(rid)
}

// maxEntry returns the greatest key/value in the subtree rooted at id.
func (tr *Tree) maxEntry(id uint64) ([]byte, []byte, error) {
	for {
		n, err := tr.st.Read(id)
		if err != nil {
			return nil, nil, err
		}
		if n.Leaf {
			last := n.Len() - 1
			return n.Key(last), n.Value(last), nil
		}
		id = n.Child(n.Len())
	}
}

func insertBytes(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeBytes(s [][]byte, i int) [][]byte {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

func insertID(s []uint64, i int, v uint64) []uint64 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeID(s []uint64, i int) []uint64 {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}
