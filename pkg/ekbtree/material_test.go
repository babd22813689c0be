package ekbtree

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestMaterialMatchesMasterKeyDerivation proves the deployment contract in
// both directions: a tree created with a master key reopens under the
// material derived from it, and a tree created under material reopens with
// the master key — the server (holding Material only) and a library client
// (holding the master) see one and the same tree. It fails if the two ways
// of keying a tree ever derive different substituters or ciphers.
func TestMaterialMatchesMasterKeyDerivation(t *testing.T) {
	master := bytes.Repeat([]byte{0x77}, 32)
	m, err := DeriveMaterial(master)
	if err != nil {
		t.Fatal(err)
	}
	withMaster := func(path string) (*Tree, error) { return Open(Options{MasterKey: master, Path: path}) }
	withMaterial := func(path string) (*Tree, error) { return OpenWithMaterial(m, Options{Path: path}) }
	for _, tc := range []struct {
		name           string
		create, reopen func(path string) (*Tree, error)
	}{
		{"master then material", withMaster, withMaterial},
		{"material then master", withMaterial, withMaster},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tenant.ekbt")
			tr, err := tc.create(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Put([]byte("alpha"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}
			tr2, err := tc.reopen(path)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer tr2.Close()
			v, ok, err := tr2.Get([]byte("alpha"))
			if err != nil || !ok || string(v) != "1" {
				t.Fatalf("Get after reopen: %q %v %v", v, ok, err)
			}
		})
	}
}

// TestMaterialWrongMasterFailsClosed: material from a different master key
// must fail the sealed-header check, exactly like a wrong MasterKey.
func TestMaterialWrongMasterFailsClosed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenant.ekbt")
	tr, err := Open(Options{MasterKey: bytes.Repeat([]byte{0x01}, 32), Path: path})
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()

	m, err := DeriveMaterial(bytes.Repeat([]byte{0x02}, 32))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenWithMaterial(m, Options{Path: path}); !errors.Is(err, ErrWrongKey) {
		t.Fatalf("wrong-master material: %v, want ErrWrongKey", err)
	}
}

func TestDeriveMaterialValidation(t *testing.T) {
	if _, err := DeriveMaterial([]byte("short")); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("short master: %v, want ErrInvalidOptions", err)
	}
	m, err := DeriveMaterial(bytes.Repeat([]byte{0x03}, 16))
	if err != nil {
		t.Fatal(err)
	}
	// The three subkeys are independent HMAC outputs: all distinct.
	if bytes.Equal(m.KeysubSecret, m.CipherKey) || bytes.Equal(m.CipherKey, m.AuthKey) ||
		bytes.Equal(m.KeysubSecret, m.AuthKey) {
		t.Fatal("derived subkeys are not independent")
	}
	// A base that already carries key material is rejected.
	if _, err := m.Options(Options{MasterKey: bytes.Repeat([]byte{0x04}, 16)}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("base with MasterKey: %v, want ErrInvalidOptions", err)
	}
}

// TestMaterialOptionsKeepBaseConfig: non-key base options (order, path,
// durability) pass through untouched.
func TestMaterialOptionsKeepBaseConfig(t *testing.T) {
	m, err := DeriveMaterial(bytes.Repeat([]byte{0x05}, 32))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.ekbt")
	opts, err := m.Options(Options{order: 8, Path: path, Durability: DurabilityGrouped})
	if err != nil {
		t.Fatal(err)
	}
	if opts.order != 8 || opts.Path != path || opts.Durability != DurabilityGrouped {
		t.Fatalf("base config lost: %+v", opts)
	}
	tr, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("tree file not created: %v", err)
	}
}
