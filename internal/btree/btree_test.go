package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// memNodes is a minimal NodeStore for tests: pages hold encoded (but
// unenciphered) nodes, exercising the real serialization path.
type memNodes struct {
	pages map[uint64][]byte
	next  uint64
	root  uint64
}

func newMemNodes() *memNodes {
	return &memNodes{pages: make(map[uint64][]byte), next: store.NoRoot + 1}
}

func (m *memNodes) Read(id uint64) (*node.Node, error) {
	p, ok := m.pages[id]
	if !ok {
		return nil, fmt.Errorf("%w: page %d", store.ErrNotFound, id)
	}
	return node.Decode(p)
}

func (m *memNodes) Write(id uint64, n *node.Node) error {
	p, err := n.EncodeFormat(node.FormatPrefix)
	if err != nil {
		return err
	}
	m.pages[id] = p
	return nil
}

func (m *memNodes) Alloc() (uint64, error) {
	id := m.next
	m.next++
	return id, nil
}

func (m *memNodes) Free(id uint64) error {
	if _, ok := m.pages[id]; !ok {
		return fmt.Errorf("%w: page %d", store.ErrNotFound, id)
	}
	delete(m.pages, id)
	return nil
}

func (m *memNodes) Root() (uint64, error) { return m.root, nil }

func (m *memNodes) SetRoot(id uint64) error {
	m.root = id
	return nil
}

// shape reports the root pointer and the number of live pages.
func (m *memNodes) shape() (root uint64, live int) { return m.root, len(m.pages) }

func newTestTree(t *testing.T, degree int) (*Tree, *memNodes) {
	t.Helper()
	st := newMemNodes()
	tr, err := New(st, degree)
	if err != nil {
		t.Fatal(err)
	}
	return tr, st
}

// checkInvariants verifies the full set of B-tree structural invariants:
// per-node key bounds, strictly sorted keys, separator ordering between
// parent and children, uniform leaf depth, and no orphaned pages.
func checkInvariants(t *testing.T, tr *Tree, st interface{ shape() (uint64, int) }) {
	t.Helper()
	root, live := st.shape()
	if root == store.NoRoot {
		if live != 0 {
			t.Fatalf("empty tree but %d pages live", live)
		}
		return
	}
	leafDepth := -1
	visited := make(map[uint64]bool)
	var walk func(id uint64, lo, hi []byte, depth int, isRoot bool)
	walk = func(id uint64, lo, hi []byte, depth int, isRoot bool) {
		if visited[id] {
			t.Fatalf("page %d reachable twice", id)
		}
		visited[id] = true
		n, err := tr.st.Read(id)
		if err != nil {
			t.Fatalf("read %d: %v", id, err)
		}
		if n.Len() > tr.maxKeys() {
			t.Fatalf("node %d has %d keys > max %d", id, n.Len(), tr.maxKeys())
		}
		if !isRoot && n.Len() < tr.t-1 {
			t.Fatalf("node %d has %d keys < min %d", id, n.Len(), tr.t-1)
		}
		if isRoot && n.Len() == 0 {
			t.Fatalf("root %d is empty but not collapsed", id)
		}
		for i := range n.Len() {
			k := n.Key(i)
			if i > 0 && bytes.Compare(n.Key(i-1), k) >= 0 {
				t.Fatalf("node %d keys not strictly sorted at %d", id, i)
			}
			if lo != nil && bytes.Compare(k, lo) <= 0 {
				t.Fatalf("node %d key %x <= lower separator %x", id, k, lo)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				t.Fatalf("node %d key %x >= upper separator %x", id, k, hi)
			}
		}
		if n.Leaf {
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				t.Fatalf("leaf %d at depth %d, expected %d", id, depth, leafDepth)
			}
			return
		}
		for i := range n.Len() + 1 {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.Key(i - 1)
			}
			if i < n.Len() {
				chi = n.Key(i)
			}
			walk(n.Child(i), clo, chi, depth+1, false)
		}
	}
	walk(root, nil, nil, 1, true)
	if len(visited) != live {
		t.Fatalf("%d pages live but only %d reachable (leak)", live, len(visited))
	}
}

func key(i int) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, 2); err == nil {
		t.Error("nil store accepted")
	}
	if _, err := New(newMemNodes(), 1); err == nil {
		t.Error("degree 1 accepted")
	}
}

func TestEmptyTree(t *testing.T) {
	tr, st := newTestTree(t, 2)
	if _, ok, err := Lookup(st, st.root, []byte("missing")); err != nil || ok {
		t.Errorf("Get on empty = (%v, %v)", ok, err)
	}
	if ok, err := tr.Delete([]byte("missing")); err != nil || ok {
		t.Errorf("Delete on empty = (%v, %v)", ok, err)
	}
	if got := iterCollect(t, NewIter(st, st.root, nil), nil); len(got) != 0 {
		t.Errorf("iterator over empty tree yielded %d entries", len(got))
	}
	s, err := StatsIn(st, st.root)
	if err != nil || s != (Stats{}) {
		t.Errorf("Stats = (%+v, %v)", s, err)
	}
}

func TestPutGetAcrossDegrees(t *testing.T) {
	for _, degree := range []int{2, 3, 4, 8, 16} {
		t.Run(fmt.Sprintf("t=%d", degree), func(t *testing.T) {
			tr, st := newTestTree(t, degree)
			const n = 1000
			rng := rand.New(rand.NewSource(1))
			perm := rng.Perm(n)
			for _, i := range perm {
				if err := tr.Put(key(i), []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			checkInvariants(t, tr, st)
			for i := 0; i < n; i++ {
				v, ok, err := Lookup(st, st.root, key(i))
				if err != nil || !ok || string(v) != fmt.Sprintf("v%d", i) {
					t.Fatalf("Get(%d) = (%q, %v, %v)", i, v, ok, err)
				}
			}
			if _, ok, _ := Lookup(st, st.root, key(n+1)); ok {
				t.Error("Get of absent key reported present")
			}
			s, _ := StatsIn(st, st.root)
			if s.Keys != n {
				t.Errorf("Stats.Keys = %d, want %d", s.Keys, n)
			}
		})
	}
}

func TestPutOverwrites(t *testing.T) {
	tr, st := newTestTree(t, 2)
	for i := 0; i < 100; i++ {
		if err := tr.Put(key(i), []byte("old")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		if err := tr.Put(key(i), []byte("new")); err != nil {
			t.Fatal(err)
		}
	}
	checkInvariants(t, tr, st)
	s, _ := StatsIn(st, st.root)
	if s.Keys != 100 {
		t.Fatalf("Stats.Keys = %d after overwrites, want 100", s.Keys)
	}
	for i := 0; i < 100; i++ {
		if v, _, _ := Lookup(st, st.root, key(i)); string(v) != "new" {
			t.Fatalf("Get(%d) = %q, want new", i, v)
		}
	}
}

// countWrites wraps memNodes to count Write calls, pinning the
// identical-value skip: a Put that changes nothing must write nothing.
type countWrites struct {
	*memNodes
	writes int
}

func (c *countWrites) Write(id uint64, n *node.Node) error {
	c.writes++
	return c.memNodes.Write(id, n)
}

func TestPutIdenticalValueWritesNothing(t *testing.T) {
	st := &countWrites{memNodes: newMemNodes()}
	tr, err := New(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := tr.Put(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	before := st.writes
	for i := 0; i < 50; i++ {
		if err := tr.Put(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if st.writes != before {
		t.Fatalf("identical re-puts issued %d writes, want 0", st.writes-before)
	}
	// A genuinely different value still writes.
	if err := tr.Put(key(7), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if st.writes == before {
		t.Fatal("real overwrite issued no write")
	}
	if v, _, _ := Lookup(st, st.root, key(7)); string(v) != "v2" {
		t.Fatalf("Get = %q, want v2", v)
	}
	checkInvariants(t, tr, st.memNodes)
}

func TestDeleteAcrossDegrees(t *testing.T) {
	for _, degree := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("t=%d", degree), func(t *testing.T) {
			tr, st := newTestTree(t, degree)
			const n = 500
			for i := 0; i < n; i++ {
				if err := tr.Put(key(i), key(i)); err != nil {
					t.Fatal(err)
				}
			}
			rng := rand.New(rand.NewSource(2))
			order := rng.Perm(n)
			for step, i := range order {
				ok, err := tr.Delete(key(i))
				if err != nil || !ok {
					t.Fatalf("Delete(%d) = (%v, %v)", i, ok, err)
				}
				if ok, _ := tr.Delete(key(i)); ok {
					t.Fatalf("second Delete(%d) reported present", i)
				}
				if step%50 == 0 {
					checkInvariants(t, tr, st)
				}
			}
			checkInvariants(t, tr, st)
			if len(st.pages) != 0 {
				t.Errorf("%d pages leaked after deleting all keys", len(st.pages))
			}
		})
	}
}

func TestScanOrder(t *testing.T) {
	tr, st := newTestTree(t, 3)
	const n = 300
	rng := rand.New(rand.NewSource(3))
	for _, i := range rng.Perm(n) {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	got := iterCollect(t, NewIter(st, st.root, nil), nil)
	if len(got) != n {
		t.Fatalf("scan visited %d entries, want %d", len(got), n)
	}
	for i, e := range got {
		if !bytes.Equal(e.Key, e.Value) {
			t.Errorf("value mismatch for %x", e.Key)
		}
		if i > 0 && bytes.Compare(got[i-1].Key, e.Key) >= 0 {
			t.Fatalf("scan not in ascending key order at entry %d", i)
		}
	}
}

func TestScanRange(t *testing.T) {
	tr, st := newTestTree(t, 2)
	for i := 0; i < 100; i++ {
		if err := tr.Put(key(i), key(i)); err != nil {
			t.Fatal(err)
		}
	}
	tests := []struct {
		name     string
		from, to []byte
		want     []int
	}{
		{"middle", key(10), key(15), []int{10, 11, 12, 13, 14}},
		{"open start", nil, key(3), []int{0, 1, 2}},
		{"open end", key(97), nil, []int{97, 98, 99}},
		{"empty", key(50), key(50), nil},
		{"beyond max", key(200), nil, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var got []int
			for _, e := range iterCollect(t, NewIter(st, st.root, tt.to), tt.from) {
				got = append(got, int(binary.BigEndian.Uint64(e.Key)))
			}
			if fmt.Sprint(got) != fmt.Sprint(tt.want) {
				t.Errorf("range = %v, want %v", got, tt.want)
			}
		})
	}
}

// TestRandomizedOps fuzzes interleaved put/get/delete against a reference map
// and checks structural invariants throughout.
func TestRandomizedOps(t *testing.T) {
	for _, degree := range []int{2, 4} {
		t.Run(fmt.Sprintf("t=%d", degree), func(t *testing.T) {
			tr, st := newTestTree(t, degree)
			ref := make(map[string]string)
			rng := rand.New(rand.NewSource(4))
			const ops = 5000
			for op := 0; op < ops; op++ {
				k := key(rng.Intn(400))
				switch rng.Intn(3) {
				case 0: // put
					v := fmt.Sprintf("v%d", op)
					if err := tr.Put(k, []byte(v)); err != nil {
						t.Fatal(err)
					}
					ref[string(k)] = v
				case 1: // get
					v, ok, err := Lookup(st, st.root, k)
					if err != nil {
						t.Fatal(err)
					}
					want, wantOK := ref[string(k)]
					if ok != wantOK || (ok && string(v) != want) {
						t.Fatalf("op %d: Get = (%q, %v), want (%q, %v)", op, v, ok, want, wantOK)
					}
				case 2: // delete
					ok, err := tr.Delete(k)
					if err != nil {
						t.Fatal(err)
					}
					if _, wantOK := ref[string(k)]; ok != wantOK {
						t.Fatalf("op %d: Delete = %v, want %v", op, ok, wantOK)
					}
					delete(ref, string(k))
				}
				if op%500 == 0 {
					checkInvariants(t, tr, st)
				}
			}
			checkInvariants(t, tr, st)
			if s, _ := StatsIn(st, st.root); s.Keys != len(ref) {
				t.Fatalf("Stats.Keys = %d, want %d", s.Keys, len(ref))
			}
			for k, want := range ref {
				v, ok, _ := Lookup(st, st.root, []byte(k))
				if !ok || string(v) != want {
					t.Fatalf("final Get(%x) = (%q, %v), want %q", k, v, ok, want)
				}
			}
		})
	}
}
