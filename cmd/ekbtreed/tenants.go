package main

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"github.com/paper-repro/ekbtree/pkg/ekbtree"
)

// tenantEntry is one tenant in the tenants file: a name and hex-encoded
// DERIVED material — keysub secret, page-cipher key, auth-verification key.
// Master keys never appear here (or anywhere server-side): provisioning
// derives these three independent subkeys from the master and discards it.
type tenantEntry struct {
	Name   string `json:"name"`
	Keysub string `json:"keysub"`
	Cipher string `json:"cipher"`
	Auth   string `json:"auth"`
}

// tenantsFile is the on-disk shape of the tenants config.
type tenantsFile struct {
	Tenants []tenantEntry `json:"tenants"`
}

// tenant is one provisioned namespace: its derived material and its lazily
// opened tree. The tree is opened on the first authenticated Open and shared
// by every connection of the tenant; it lives until drain.
type tenant struct {
	name     string
	material ekbtree.Material

	mu   sync.Mutex
	tree *ekbtree.Tree
}

// openTree returns the tenant's tree, opening its page file on first use
// with the server's options template and the tenant's own Path.
func (t *tenant) openTree(dir string, base ekbtree.Options) (*ekbtree.Tree, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tree != nil {
		return t.tree, nil
	}
	base.Path = filepath.Join(dir, t.name+".ekbt")
	tree, err := ekbtree.OpenWithMaterial(t.material, base)
	if err != nil {
		return nil, err
	}
	t.tree = tree
	return tree, nil
}

// closeTree closes the tenant's tree if it was ever opened.
func (t *tenant) closeTree() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tree == nil {
		return nil
	}
	err := t.tree.Close()
	t.tree = nil
	return err
}

// registry maps tenant names to their provisioned state. It is immutable
// after load; only each tenant's lazily opened tree mutates behind its own
// lock.
type registry struct {
	dir string
	// cfg is the options every tenant tree opens with, Path aside; the
	// command-line flags write into it.
	cfg     ekbtree.Options
	tenants map[string]*tenant
}

// validTenantName rejects names that could escape the data directory or
// collide with path syntax: 1–64 characters from [A-Za-z0-9_-].
func validTenantName(name string) bool {
	if len(name) == 0 || len(name) > 64 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// loadRegistry reads and validates the tenants file.
func loadRegistry(tenantsPath, dataDir string, cfg ekbtree.Options) (*registry, error) {
	raw, err := os.ReadFile(tenantsPath)
	if err != nil {
		return nil, fmt.Errorf("tenants file: %w", err)
	}
	var tf tenantsFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return nil, fmt.Errorf("tenants file %s: %w", tenantsPath, err)
	}
	r := &registry{dir: dataDir, cfg: cfg, tenants: make(map[string]*tenant, len(tf.Tenants))}
	for _, e := range tf.Tenants {
		if !validTenantName(e.Name) {
			return nil, fmt.Errorf("tenants file %s: invalid tenant name %q", tenantsPath, e.Name)
		}
		if _, dup := r.tenants[e.Name]; dup {
			return nil, fmt.Errorf("tenants file %s: duplicate tenant %q", tenantsPath, e.Name)
		}
		m, err := decodeMaterial(e)
		if err != nil {
			return nil, fmt.Errorf("tenants file %s: tenant %q: %w", tenantsPath, e.Name, err)
		}
		r.tenants[e.Name] = &tenant{name: e.Name, material: m}
	}
	return r, nil
}

func decodeMaterial(e tenantEntry) (ekbtree.Material, error) {
	var m ekbtree.Material
	var err error
	if m.KeysubSecret, err = hex.DecodeString(e.Keysub); err != nil || len(m.KeysubSecret) == 0 {
		return m, fmt.Errorf("bad keysub material")
	}
	if m.CipherKey, err = hex.DecodeString(e.Cipher); err != nil || len(m.CipherKey) == 0 {
		return m, fmt.Errorf("bad cipher material")
	}
	if m.AuthKey, err = hex.DecodeString(e.Auth); err != nil || len(m.AuthKey) == 0 {
		return m, fmt.Errorf("bad auth material")
	}
	return m, nil
}

// lookup returns the tenant, or nil if unknown.
func (r *registry) lookup(name string) *tenant {
	return r.tenants[name]
}

// closeAll closes every opened tenant tree, returning the first error.
func (r *registry) closeAll() error {
	var first error
	for _, t := range r.tenants {
		if err := t.closeTree(); err != nil && first == nil {
			first = fmt.Errorf("closing tenant %s: %w", t.name, err)
		}
	}
	return first
}

// provisionTenant derives material from masterHex and inserts (or replaces)
// the tenant in the tenants file, creating the file if needed. This runs
// CLIENT-side conceptually: the master key is consumed here and only derived
// material is written.
func provisionTenant(tenantsPath, name, masterHex string) error {
	if !validTenantName(name) {
		return fmt.Errorf("invalid tenant name %q (want 1-64 chars of [A-Za-z0-9_-])", name)
	}
	master, err := hex.DecodeString(masterHex)
	if err != nil {
		return fmt.Errorf("master key: %w", err)
	}
	m, err := ekbtree.DeriveMaterial(master)
	if err != nil {
		return err
	}
	var tf tenantsFile
	if raw, err := os.ReadFile(tenantsPath); err == nil {
		if err := json.Unmarshal(raw, &tf); err != nil {
			return fmt.Errorf("tenants file %s: %w", tenantsPath, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	entry := tenantEntry{
		Name:   name,
		Keysub: hex.EncodeToString(m.KeysubSecret),
		Cipher: hex.EncodeToString(m.CipherKey),
		Auth:   hex.EncodeToString(m.AuthKey),
	}
	replaced := false
	for i := range tf.Tenants {
		if tf.Tenants[i].Name == name {
			tf.Tenants[i] = entry
			replaced = true
			break
		}
	}
	if !replaced {
		tf.Tenants = append(tf.Tenants, entry)
	}
	sort.Slice(tf.Tenants, func(i, j int) bool { return tf.Tenants[i].Name < tf.Tenants[j].Name })
	out, err := json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(tenantsPath, append(out, '\n'))
}

// writeFileAtomic replaces path's contents via a same-directory temp file,
// fsync, and rename, so a crash mid-provision leaves either the old tenants
// file or the new one — never a truncated or interleaved mix that would strand
// every tenant at the next server start. The file holds live key material:
// owner-only permissions from creation, never widened.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op once the rename lands
	if err := tmp.Chmod(0o600); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Make the rename itself durable; without the directory fsync the old
	// name can outlive a crash even after the data hit the platter.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
