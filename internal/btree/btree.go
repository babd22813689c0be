// Package btree implements a paged B-tree (CLRS-style, minimum degree t) over
// an abstract NodeStore. All keys at this layer are substituted search keys
// (see internal/keysub); the tree orders, traverses, splits, and merges on
// substituted bytes only and never observes a plaintext key. Persistence and
// encipherment live behind NodeStore, so the same tree code runs over any
// store/cipher combination.
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
			switch cmp := bytes.Compare(key, n.Keys[i]); {
			case cmp == 0:
				if bytes.Equal(n.Values[i], value) {
					return nil
				}
				return tr.setValue(id, i, value)
			case cmp > 0:
				i++
			}
			childID = n.Children[i]
			if c, err = tr.st.Read(childID); err != nil {
				return err
			}
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
	if root, err = tr.edit(rootID); err != nil {
		return true, err
	}
	if len(root.Keys) == 0 {
		if root.Leaf {
			if err := tr.st.Free(rootID); err != nil {
				return deleted, err
			}
			return deleted, tr.st.SetRoot(store.NoRoot)
		}
		if err := tr.st.Free(rootID); err != nil {
			return deleted, err
		}
		return deleted, tr.st.SetRoot(root.Children[0])
	}
	return deleted, nil
}

// delete removes key from the subtree rooted at n (page id). Except at the
// root, n is guaranteed to hold at least t keys on entry.
func (tr *Tree) delete(id uint64, n *node.Node, key []byte) (bool, error) {
	i, eq := n.Search(key)
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
	if eq {
		return true, tr.deleteInternal(id, i, key)
	}
	childID := n.Child(i)
	c, err := tr.st.Read(childID)
	if err != nil {
		return false, err
	}
	if c.Len() < tr.t {
		// Deleting an absent key must not restructure the tree: check the
		// subtree read-only before borrowing or merging on the way down.
		if _, ok, err := lookupFrom(tr.st, c, key); err != nil || !ok {
			return false, err
		}
		if n, err = tr.edit(id); err != nil {
			return false, err
		}
		if err := tr.fill(id, n, i); err != nil {
			return false, err
		}
		// fill rearranged n's keys and children; re-search from n.
		return tr.delete(id, n, key)
	}
	return tr.delete(childID, c, key)
}

// deleteInternal removes entry i (== key) from internal page id by replacing
// it with its predecessor or successor, or merging its two children around it.
func (tr *Tree) deleteInternal(id uint64, i int, key []byte) error {
	n, err := tr.edit(id)
	if err != nil {
		return err
	}
	leftID := n.Children[i]
	left, err := tr.st.Read(leftID)
	if err != nil {
		return err
	}
	if left.Len() >= tr.t {
		pk, pv, err := tr.maxEntry(leftID)
		if err != nil {
			return err
		}
		n.Keys[i], n.Values[i] = pk, pv
		if err := tr.st.Write(id, n); err != nil {
			return err
		}
		_, err = tr.delete(leftID, left, pk)
		return err
	}
	rightID := n.Children[i+1]
	right, err := tr.st.Read(rightID)
	if err != nil {
		return err
	}
	if right.Len() >= tr.t {
		sk, sv, err := tr.minEntry(rightID)
		if err != nil {
			return err
		}
		n.Keys[i], n.Values[i] = sk, sv
		if err := tr.st.Write(id, n); err != nil {
			return err
		}
		_, err = tr.delete(rightID, right, sk)
		return err
	}
	if left, err = tr.edit(leftID); err != nil {
		return err
	}
	if err := tr.merge(id, n, i, leftID, left, rightID, right); err != nil {
		return err
	}
	_, err = tr.delete(leftID, left, key)
	return err
}

// fill ensures the child at index i of p (the caller's private copy of page
// pid) holds at least t keys, by borrowing from a sibling or merging with one.
func (tr *Tree) fill(pid uint64, p *node.Node, i int) error {
	childID := p.Children[i]
	c, err := tr.st.Read(childID)
	if err != nil {
		return err
	}
	if i > 0 {
		leftID := p.Children[i-1]
		l, err := tr.st.Read(leftID)
		if err != nil {
			return err
		}
		if l.Len() >= tr.t {
			// Rotate right: parent separator moves down, left sibling's
			// maximum moves up.
			if c, err = tr.edit(childID); err != nil {
				return err
			}
			if l, err = tr.edit(leftID); err != nil {
				return err
			}
			c.Keys = insertBytes(c.Keys, 0, p.Keys[i-1])
			c.Values = insertBytes(c.Values, 0, p.Values[i-1])
			last := len(l.Keys) - 1
			p.Keys[i-1], p.Values[i-1] = l.Keys[last], l.Values[last]
			l.Keys, l.Values = l.Keys[:last], l.Values[:last]
			if !c.Leaf {
				c.Children = insertID(c.Children, 0, l.Children[len(l.Children)-1])
				l.Children = l.Children[:len(l.Children)-1]
			}
			return tr.write3(leftID, l, childID, c, pid, p)
		}
	}
	if i < len(p.Keys) {
		rightID := p.Children[i+1]
		r, err := tr.st.Read(rightID)
		if err != nil {
			return err
		}
		if r.Len() >= tr.t {
			// Rotate left: parent separator moves down, right sibling's
			// minimum moves up.
			if c, err = tr.edit(childID); err != nil {
				return err
			}
			if r, err = tr.edit(rightID); err != nil {
				return err
			}
			c.Keys = append(c.Keys, p.Keys[i])
			c.Values = append(c.Values, p.Values[i])
			p.Keys[i], p.Values[i] = r.Keys[0], r.Values[0]
			r.Keys, r.Values = r.Keys[1:], r.Values[1:]
			if !c.Leaf {
				c.Children = append(c.Children, r.Children[0])
				r.Children = r.Children[1:]
			}
			return tr.write3(rightID, r, childID, c, pid, p)
		}
		if c, err = tr.edit(childID); err != nil {
			return err
		}
		return tr.merge(pid, p, i, childID, c, rightID, r)
	}
	leftID := p.Children[i-1]
	if _, err := tr.st.Read(leftID); err != nil {
		return err
	}
	l, err := tr.edit(leftID)
	if err != nil {
		return err
	}
	return tr.merge(pid, p, i-1, leftID, l, childID, c)
}

// merge folds the separator p.Keys[i] and the child at i+1 into the child at
// i, freeing the right child. Both children hold t-1 keys on entry; p and
// left are the caller's private copies, right is only read, so it may be a
// view and is read through its accessors.
func (tr *Tree) merge(pid uint64, p *node.Node, i int, leftID uint64, left *node.Node, rightID uint64, right *node.Node) error {
	left.Keys = append(left.Keys, p.Keys[i])
	left.Values = append(left.Values, p.Values[i])
	for j := range right.Len() {
		left.Keys = append(left.Keys, right.Key(j))
		left.Values = append(left.Values, right.Value(j))
	}
	if !left.Leaf {
		for j := range right.Len() + 1 {
			left.Children = append(left.Children, right.Child(j))
		}
	}
	p.Keys = removeBytes(p.Keys, i)
	p.Values = removeBytes(p.Values, i)
	p.Children = removeID(p.Children, i+1)
	if err := tr.st.Write(leftID, left); err != nil {
		return err
	}
	if err := tr.st.Write(pid, p); err != nil {
		return err
	}
	return tr.st.Free(rightID)
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

// minEntry returns the least key/value in the subtree rooted at id.
func (tr *Tree) minEntry(id uint64) ([]byte, []byte, error) {
	for {
		n, err := tr.st.Read(id)
		if err != nil {
			return nil, nil, err
		}
		if n.Leaf {
			return n.Key(0), n.Value(0), nil
		}
		id = n.Child(0)
	}
}

func (tr *Tree) write3(idA uint64, a *node.Node, idB uint64, b *node.Node, idC uint64, c *node.Node) error {
	if err := tr.st.Write(idA, a); err != nil {
		return err
	}
	if err := tr.st.Write(idB, b); err != nil {
		return err
	}
	return tr.st.Write(idC, c)
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
