package btree

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// cowNodes is a copy-on-write NodeStore of decoded nodes that behaves as the
// engine's write transaction does across commits: Read hands out a page's
// shared node, Edit the open transaction's private copy, and commit turns
// every private node into a shared one. Every node it has shared is frozen —
// fingerprinted the moment it becomes shared and kept after the page moves
// on, as a snapshot reader's pre-image would be — and verify fails the test
// if any of them has been altered since.
type cowNodes struct {
	t       *testing.T
	views   bool                  // commit shares a page as the view a read miss would decode
	nodes   map[uint64]*node.Node // current node per live page
	private map[uint64]bool       // pages whose current node the open transaction owns
	frozen  map[*node.Node]string // fingerprint of every node ever shared
	next    uint64
	root    uint64
}

func newCowNodes(t *testing.T, views bool) *cowNodes {
	return &cowNodes{
		t:       t,
		views:   views,
		nodes:   make(map[uint64]*node.Node),
		private: make(map[uint64]bool),
		frozen:  make(map[*node.Node]string),
		next:    store.NoRoot + 1,
	}
}

// fingerprint renders everything a holder of n can observe: the leaf flag,
// for each outer slice its backing array's address, its length and capacity,
// and every element of the backing array — the spare capacity included, where
// an in-place append would land without changing the length — and, when the
// store shares views, every entry as the accessors read it, which is all a
// view shows.
func (m *cowNodes) fingerprint(n *node.Node) string {
	var b strings.Builder
	fmt.Fprintf(&b, "leaf=%v", n.Leaf)
	for _, s := range [][][]byte{n.Keys, n.Values} {
		fmt.Fprintf(&b, " %p %d/%d %q", s, len(s), cap(s), s[:cap(s)])
	}
	c := n.Children
	fmt.Fprintf(&b, " %p %d/%d %v", c, len(c), cap(c), c[:cap(c)])
	if !m.views {
		return b.String()
	}
	for i := range n.Len() {
		fmt.Fprintf(&b, " %q=%q", n.Key(i), n.Value(i))
	}
	if !n.Leaf {
		for i := range n.Len() + 1 {
			fmt.Fprintf(&b, " >%d", n.Child(i))
		}
	}
	return b.String()
}

// cowClone copies n the way node.Materialize does — fresh outer slices,
// shared inner bytes — leaving spare capacity in all three, so that an append
// to a node shared later writes into its backing array rather than moving it.
func cowClone(n *node.Node) *node.Node {
	c := &node.Node{Leaf: n.Leaf, Keys: make([][]byte, 0, n.Len()+2), Values: make([][]byte, 0, n.Len()+2)}
	for i := range n.Len() {
		c.Keys, c.Values = append(c.Keys, n.Key(i)), append(c.Values, n.Value(i))
	}
	if !n.Leaf {
		c.Children = make([]uint64, 0, n.Len()+3)
		for i := range n.Len() + 1 {
			c.Children = append(c.Children, n.Child(i))
		}
	}
	return c
}

func (m *cowNodes) freeze(n *node.Node) {
	if _, ok := m.frozen[n]; !ok {
		m.frozen[n] = m.fingerprint(n)
	}
}

func (m *cowNodes) Read(id uint64) (*node.Node, error) {
	n, ok := m.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: page %d", store.ErrNotFound, id)
	}
	if !m.private[id] {
		m.freeze(n)
	}
	return n, nil
}

func (m *cowNodes) Edit(id uint64) (*node.Node, error) {
	n, err := m.Read(id)
	if err != nil {
		return nil, err
	}
	if !m.private[id] {
		n = cowClone(n)
		m.nodes[id], m.private[id] = n, true
	}
	return n, nil
}

func (m *cowNodes) Write(id uint64, n *node.Node) error {
	if _, shared := m.frozen[n]; shared {
		m.t.Fatalf("Write(%d) of a shared node: the tree skipped Edit", id)
	}
	m.nodes[id], m.private[id] = n, true
	return nil
}

func (m *cowNodes) Alloc() (uint64, error) {
	id := m.next
	m.next++
	return id, nil
}

func (m *cowNodes) Free(id uint64) error {
	if _, ok := m.nodes[id]; !ok {
		return fmt.Errorf("%w: page %d", store.ErrNotFound, id)
	}
	delete(m.nodes, id)
	delete(m.private, id)
	return nil
}

func (m *cowNodes) Root() (uint64, error) { return m.root, nil }

func (m *cowNodes) SetRoot(id uint64) error {
	m.root = id
	return nil
}

func (m *cowNodes) shape() (root uint64, live int) { return m.root, len(m.nodes) }

// commit ends the open transaction: its private nodes are shared from here on.
func (m *cowNodes) commit() {
	for id := range m.private {
		if m.views {
			page, err := m.nodes[id].EncodeFormat(node.FormatPrefix)
			if err != nil {
				m.t.Fatal(err)
			}
			if m.nodes[id], err = node.DecodeInPlace(page); err != nil {
				m.t.Fatal(err)
			}
		}
		m.freeze(m.nodes[id])
	}
	clear(m.private)
}

// verify fails the test if any node ever shared no longer matches the
// fingerprint taken when it became shared.
func (m *cowNodes) verify(when string) {
	m.t.Helper()
	for n, want := range m.frozen {
		if got := m.fingerprint(n); got != want {
			m.t.Fatalf("%s: a shared node was altered in place\n was %s\n now %s", when, want, got)
		}
	}
}

// TestSharedNodesAreNeverAltered runs a randomized Put/overwrite/Delete
// sequence, in transactions of one to eight ops, over a store that hands out
// frozen nodes from Read, against a map model: the tree must change pages only
// through Edit (or nodes it built itself), whatever mix of splits, rotations,
// merges and root collapses the sequence drives, and must re-take every
// pointer an Edit made stale — a mutation applied to a stale pointer shows up
// as a model mismatch, one applied to a shared node as a fingerprint mismatch.
// The views legs share committed pages as views, so every read path and every
// merge that takes a sibling it only read meets nodes whose fields are empty.
func TestSharedNodesAreNeverAltered(t *testing.T) {
	const ops, checkEvery = 10_000, 500
	for _, tc := range []struct {
		degree, keys int
		views        bool
	}{{2, 300, false}, {3, 400, false}, {16, 3000, false}, {2, 300, true}, {16, 3000, true}} { // 16 = ekbtree.DefaultOrder/2
		name := fmt.Sprintf("t=%d", tc.degree)
		if tc.views {
			name += ",views"
		}
		t.Run(name, func(t *testing.T) {
			st := newCowNodes(t, tc.views)
			tr, err := New(st, tc.degree)
			if err != nil {
				t.Fatal(err)
			}
			ref := make(map[string]string)
			rng := rand.New(rand.NewSource(int64(tc.degree)))
			left := 0 // ops left in the open transaction
			for op := 0; op < ops; op++ {
				if left == 0 {
					st.commit()
					left = 1 + rng.Intn(8)
				}
				left--
				k := key(rng.Intn(tc.keys))
				// Alternate growing and shrinking thousands, so the tree both
				// splits its way up and merges its way back down to nothing.
				putShare := 70
				if op/1000%2 == 1 {
					putShare = 25
				}
				if rng.Intn(100) < putShare {
					v := fmt.Sprintf("v%d", rng.Intn(4)) // few values: some puts are identical
					if err := tr.Put(k, []byte(v)); err != nil {
						t.Fatal(err)
					}
					ref[string(k)] = v
				} else {
					ok, err := tr.Delete(k)
					if err != nil {
						t.Fatal(err)
					}
					if _, want := ref[string(k)]; ok != want {
						t.Fatalf("op %d: Delete = %v, want %v", op, ok, want)
					}
					delete(ref, string(k))
				}
				if v, ok, err := Lookup(st, st.root, k); err != nil || ok != (ref[string(k)] != "") || string(v) != ref[string(k)] {
					t.Fatalf("op %d: Get = (%q, %v, %v), want %q", op, v, ok, err, ref[string(k)])
				}
				// Checked every op: the next deletion would collapse a root this
				// one left empty, hiding it from the periodic check.
				if st.root != store.NoRoot && st.nodes[st.root].Len() == 0 {
					t.Fatalf("op %d: root %d is empty but not collapsed", op, st.root)
				}
				if op%checkEvery == 0 {
					checkInvariants(t, tr, st)
					st.verify(fmt.Sprintf("op %d", op))
				}
			}
			st.commit()
			checkInvariants(t, tr, st)
			st.verify("end")
			got := iterCollect(t, NewIter(st, st.root, nil), nil)
			if len(got) != len(ref) {
				t.Fatalf("tree holds %d entries, model %d", len(got), len(ref))
			}
			for _, e := range got {
				if ref[string(e.Key)] != string(e.Value) {
					t.Fatalf("entry %x = %q, model %q", e.Key, e.Value, ref[string(e.Key)])
				}
			}
		})
	}
}
