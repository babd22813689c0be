package btree

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/paper-repro/ekbtree/internal/node"
	"github.com/paper-repro/ekbtree/internal/store"
)

// A tree spec writes a node as its keys in brackets, followed, for an index
// node, by its children: "[20 [10 15] [30]]" is a root holding 20 over the
// leaves [10 15] and [30]. Key k is key(k) and holds the value "v<k>".

// buildTree writes the tree spec describes straight into st's pages and makes
// its root st's root.
func buildTree(t *testing.T, st *memNodes, spec string) {
	t.Helper()
	toks := strings.Fields(strings.NewReplacer("[", " [ ", "]", " ] ").Replace(spec))
	var parse func() uint64
	parse = func() uint64 {
		if toks[0] != "[" {
			t.Fatalf("spec %q: want [ at %q", spec, toks)
		}
		toks = toks[1:]
		var keys []int
		var kids []uint64
		for toks[0] != "]" {
			if toks[0] == "[" {
				kids = append(kids, parse())
				continue
			}
			k, err := strconv.Atoi(toks[0])
			if err != nil {
				t.Fatalf("spec %q: %v", spec, err)
			}
			keys, toks = append(keys, k), toks[1:]
		}
		toks = toks[1:]
		n := node.New(len(kids) == 0, len(keys))
		for _, k := range keys {
			n.Keys, n.Values = append(n.Keys, key(k)), append(n.Values, []byte(fmt.Sprintf("v%d", k)))
		}
		n.Children = append(n.Children, kids...)
		id, _ := st.Alloc()
		if err := st.Write(id, n); err != nil {
			t.Fatal(err)
		}
		return id
	}
	st.root = parse()
	if len(toks) != 0 {
		t.Fatalf("spec %q: trailing %q", spec, toks)
	}
}

// dumpTree renders the tree in st as a spec.
func dumpTree(t *testing.T, st *memNodes) string {
	t.Helper()
	var b strings.Builder
	var walk func(id uint64)
	walk = func(id uint64) {
		n, err := st.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("[")
		for i := range n.Len() {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprint(&b, binary.BigEndian.Uint64(n.Key(i)))
		}
		if !n.Leaf {
			for i := range n.Len() + 1 {
				b.WriteString(" ")
				walk(n.Child(i))
			}
		}
		b.WriteString("]")
	}
	if st.root != store.NoRoot {
		walk(st.root)
	}
	return b.String()
}

// TestMutationRules drives each case of the insert and delete rules once, on
// a hand-built tree, and pins the shape the rule leaves.
func TestMutationRules(t *testing.T) {
	for _, tc := range []struct {
		name   string
		degree int
		tree   string
		put    bool // Put key with value "new", else Delete key
		key    int
		found  bool // Delete's answer
		want   string
	}{{
		name: "index hit, left child spares its greatest", degree: 2,
		tree: "[20 [10 15] [30]]", key: 20, found: true,
		want: "[15 [10] [30]]",
	}, {
		name: "index hit, left child short, left sibling spares", degree: 2,
		tree: "[20 40 [5 10] [30] [50]]", key: 40, found: true,
		want: "[10 30 [5] [20] [50]]",
	}, {
		name: "index hit, left child short, right sibling spares", degree: 2,
		tree: "[20 [10] [30 40]]", key: 20, found: true,
		want: "[30 [10] [40]]",
	}, {
		name: "index hit, both short, merge at the root collapses it", degree: 2,
		tree: "[20 [10] [30]]", key: 20, found: true,
		want: "[10 30]",
	}, {
		name: "index hit, both short, merge below the root", degree: 2,
		tree: "[50 [20 40 [10] [30] [45]] [70 [60] [80]]]", key: 20, found: true,
		want: "[50 [40 [10 30] [45]] [70 [60] [80]]]",
	}, {
		name: "leaf key, short child filled from its right sibling", degree: 3,
		tree: "[30 [10 20] [40 50 60]]", key: 10, found: true,
		want: "[40 [20 30] [50 60]]",
	}, {
		name: "leaf key, short last child filled from its left sibling", degree: 3,
		tree: "[30 [10 20 25] [40 50]]", key: 50, found: true,
		want: "[25 [10 20] [30 40]]",
	}, {
		name: "miss below short children leaves the tree alone", degree: 2,
		tree: "[20 [10] [30]]", key: 25,
		want: "[20 [10] [30]]",
	}, {
		name: "split raises the key with a different value", degree: 2,
		tree: "[20 [10 15 18] [30]]", put: true, key: 15,
		want: "[15 20 [10] [18] [30]]",
	}, {
		name: "root split raises the key with a different value", degree: 3,
		tree: "[10 20 30 40 50]", put: true, key: 30,
		want: "[30 [10 20] [40 50]]",
	}} {
		t.Run(tc.name, func(t *testing.T) {
			mem := newMemNodes()
			buildTree(t, mem, tc.tree)
			st := &countWrites{memNodes: mem}
			tr, err := New(st, tc.degree)
			if err != nil {
				t.Fatal(err)
			}
			checkInvariants(t, tr, mem)
			model := make(map[string]string)
			for _, e := range iterCollect(t, NewIter(mem, mem.root, nil), nil) {
				model[string(e.Key)] = string(e.Value)
			}
			k := key(tc.key)
			if tc.put {
				if err := tr.Put(k, []byte("new")); err != nil {
					t.Fatal(err)
				}
				model[string(k)] = "new"
			} else {
				found, err := tr.Delete(k)
				if err != nil || found != tc.found {
					t.Fatalf("Delete(%d) = (%v, %v), want %v", tc.key, found, err, tc.found)
				}
				delete(model, string(k))
			}
			checkInvariants(t, tr, mem)
			if got := dumpTree(t, mem); got != tc.want {
				t.Errorf("tree = %s, want %s", got, tc.want)
			}
			if !tc.put && !tc.found && st.writes != 0 {
				t.Errorf("a miss wrote %d pages", st.writes)
			}
			got := iterCollect(t, NewIter(mem, mem.root, nil), nil)
			if len(got) != len(model) {
				t.Fatalf("tree holds %d entries, model %d", len(got), len(model))
			}
			for _, e := range got {
				if want, ok := model[string(e.Key)]; !ok || string(e.Value) != want {
					t.Fatalf("entry %d = %q, model (%q, %v)", binary.BigEndian.Uint64(e.Key), e.Value, want, ok)
				}
			}
		})
	}
}
