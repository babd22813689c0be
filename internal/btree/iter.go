package btree

import (
	"bytes"

	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// Iter is an in-order iterator over the tree rooted at a fixed root, reading
// pages through a Reader. It keeps the descent path (root-to-leaf stack) in
// memory, so advancing to the next entry is O(1) amortized — no per-entry or
// per-batch re-descent — and each page on the path is read exactly once per
// positioning.
//
// An Iter observes exactly the version of the tree its Reader and root
// describe; it is the engine behind the façade's snapshot cursors. The key
// and value slices returned by Next alias node buffers owned by the Reader's
// version; callers must treat them as read-only and copy what they retain
// beyond the version's lifetime.
//
// The path stack lives in the Iter itself (room) for trees up to
// iterStackRoom levels, so positioning allocates nothing. Seek binds it, so
// an Iter may be copied before its Seek (Snapshot.Iter hands one out by
// value) but a copy made between Seek and Next shares the original's stack
// until it seeks itself.
//
// An Iter is not safe for concurrent use.
type Iter struct {
	r    Reader
	root uint64
	to   []byte // exclusive upper bound; nil = unbounded

	stack []iterFrame // room[:0] from Seek on, grown past it only in a deeper tree
	room  [iterStackRoom]iterFrame
	err   error
}

// iterFrame is one level of the descent path. i is the next key index to
// emit at this node; for internal nodes, descend marks that child i must be
// visited before key i.
type iterFrame struct {
	n       *node.Node
	i       int
	descend bool
}

// iterStackRoom is the path stack's inline capacity. Eight levels is a tree
// of billions of entries at any order in use; a deeper one grows the stack on
// the heap.
const iterStackRoom = 8

// NewIter returns an iterator over the tree rooted at rootID with keys below
// to (nil = unbounded). Position it with Seek before calling Next.
func NewIter(r Reader, rootID uint64, to []byte) *Iter {
	return &Iter{r: r, root: rootID, to: to}
}

// Seek positions the iterator so that the following Next returns the first
// entry with key >= from (nil positions at the smallest key). Seek may be
// called at any time to reposition; it clears any previous error.
func (it *Iter) Seek(from []byte) {
	it.stack = it.room[:0]
	it.err = nil
	if it.root == store.NoRoot {
		return
	}
	id := it.root
	for {
		n, err := it.r.Read(id)
		if err != nil {
			it.err = err
			it.stack = it.stack[:0]
			return
		}
		// Search finds the first key >= from at this level; keys >= from may
		// also exist in child i, so the descent continues there. Every pushed
		// frame is positioned past the already-descended child.
		i, _ := n.Search(from)
		it.stack = append(it.stack, iterFrame{n: n, i: i})
		if n.Leaf {
			return
		}
		id = n.Child(i)
	}
}

// Next returns the next entry in ascending key order, or ok == false when the
// range is exhausted or an error occurred (see Err). The returned slices
// alias node buffers; see the type comment for ownership.
func (it *Iter) Next() (key, value []byte, ok bool) {
	if it.err != nil {
		return nil, nil, false
	}
	for len(it.stack) > 0 {
		f := &it.stack[len(it.stack)-1]
		if !f.n.Leaf && f.descend {
			f.descend = false
			n, err := it.r.Read(f.n.Child(f.i))
			if err != nil {
				it.err = err
				it.stack = it.stack[:0]
				return nil, nil, false
			}
			it.stack = append(it.stack, iterFrame{n: n, descend: !n.Leaf})
			continue
		}
		if f.i >= f.n.Len() {
			it.stack = it.stack[:len(it.stack)-1]
			continue
		}
		key, value = f.n.Key(f.i), f.n.Value(f.i)
		f.i++
		f.descend = !f.n.Leaf
		if it.to != nil && bytes.Compare(key, it.to) >= 0 {
			it.stack = it.stack[:0]
			return nil, nil, false
		}
		return key, value, true
	}
	return nil, nil, false
}

// Err returns the first error the iterator encountered, or nil.
func (it *Iter) Err() error {
	return it.err
}
