package btree

import (
	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// Reader is the read-only subset of NodeStore. Snapshot readers hand the
// package-level read functions (Lookup, NewIter, StatsIn) a Reader resolving
// pages as of a pinned version, together with that version's root, so reads
// need no access to the mutable tree at all.
//
// A Reader may hand out views (see node.DecodeInPlace), whose Keys, Values
// and Children are empty, so this file and iter.go read nodes only through
// Len, Key, Value, Child and Search.
type Reader interface {
	Read(id uint64) (*node.Node, error)
}

// Lookup searches for key in the tree rooted at rootID, reading pages through
// r: the caller supplies the root of the version it wants to read, and r
// resolves every page as of that version. The returned value aliases the node
// buffer; callers copy if they retain it.
func Lookup(r Reader, rootID uint64, key []byte) ([]byte, bool, error) {
	if rootID == store.NoRoot {
		return nil, false, nil
	}
	n, err := r.Read(rootID)
	if err != nil {
		return nil, false, err
	}
	return lookupFrom(r, n, key)
}

// lookupFrom is a read-only descent for key in the subtree rooted at n.
func lookupFrom(r Reader, n *node.Node, key []byte) ([]byte, bool, error) {
	for {
		i, eq := n.Search(key)
		if eq {
			return n.Value(i), true, nil
		}
		if n.Leaf {
			return nil, false, nil
		}
		var err error
		if n, err = r.Read(n.Child(i)); err != nil {
			return nil, false, err
		}
	}
}

// Stats describes tree shape, for diagnostics and benchmarks.
type Stats struct {
	Keys   int
	Nodes  int
	Height int
}

// StatsIn walks the whole tree rooted at rootID through r; it is O(nodes).
func StatsIn(r Reader, rootID uint64) (Stats, error) {
	var s Stats
	if rootID == store.NoRoot {
		return s, nil
	}
	err := stats(r, rootID, 1, &s)
	return s, err
}

func stats(r Reader, id uint64, depth int, s *Stats) error {
	n, err := r.Read(id)
	if err != nil {
		return err
	}
	s.Nodes++
	s.Keys += n.Len()
	if depth > s.Height {
		s.Height = depth
	}
	if n.Leaf {
		return nil
	}
	for i := range n.Len() + 1 {
		if err := stats(r, n.Child(i), depth+1, s); err != nil {
			return err
		}
	}
	return nil
}
