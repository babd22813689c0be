package ekbtree

import (
	"fmt"

	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/keysub"
)

// Material is the derived key material a server-side deployment holds for one
// tenant. It is what a tree "is keyed by" once the master key is out of the
// picture: the substitution secret and the page-cipher key (exactly the
// subkeys Options.MasterKey would derive), plus an authentication subkey used
// only to verify wire-handshake proofs (see pkg/ekbtree/wire).
//
// The deployment model (HardIDX-style, and the one the source paper assumes):
// clients hold master keys; the server is provisioned with Material only.
// Holding Material lets the server substitute search keys and seal/open pages
// — which the engine's façade needs to operate — but the master key itself
// never reaches the server, so Material cannot be used to derive any OTHER
// subkey a client may have minted from the same master (all three subkeys are
// independent HMAC-SHA256 outputs).
type Material struct {
	// KeysubSecret keys the substituter (HMAC key substitution).
	KeysubSecret []byte
	// CipherKey keys the page cipher (AES-256-GCM).
	CipherKey []byte
	// AuthKey verifies wire-handshake challenge/response proofs. It is not
	// used by the engine itself and may be left nil when only opening trees.
	AuthKey []byte
}

// DeriveMaterial derives a tenant's Material from its master key. It is the
// only derivation: Options.MasterKey resolves its layers through
// DeriveMaterial(m).Options, so a tree created with Options{MasterKey: m} and
// one opened via DeriveMaterial(m).Options(...) are the same tree.
func DeriveMaterial(master []byte) (Material, error) {
	if len(master) < 16 {
		return Material{}, fmt.Errorf("%w: master key must be at least 16 bytes", ErrInvalidOptions)
	}
	return Material{
		KeysubSecret: deriveKey(master, "ekbtree/keysub"),
		CipherKey:    deriveKey(master, "ekbtree/cipher"),
		AuthKey:      deriveKey(master, "ekbtree/auth"),
	}, nil
}

// Options returns a copy of base with the Substituter and Cipher layers built
// from the material, ready to pass to Open. base must not set MasterKey,
// Substituter, or Cipher — the material is the key source.
func (m Material) Options(base Options) (Options, error) {
	if base.MasterKey != nil || base.Substituter != nil || base.Cipher != nil {
		return Options{}, fmt.Errorf("%w: Material.Options requires a base without key material", ErrInvalidOptions)
	}
	sub, err := keysub.NewHMAC(m.KeysubSecret, 24)
	if err != nil {
		return Options{}, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	// The epoch-keyed scheme: per-epoch HKDF subkeys and counter nonces,
	// rotated by the background rotator.
	nc, err := cipher.NewEpochAESGCM(m.CipherKey)
	if err != nil {
		return Options{}, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
	}
	base.Substituter = sub
	base.Cipher = nc
	return base, nil
}

// OpenWithMaterial opens a tree keyed by derived material instead of a master
// key: Open(m.Options(base)). This is the server-side entry point — a
// deployment provisioned with Material can serve a tenant's tree without ever
// holding the tenant's master key.
func OpenWithMaterial(m Material, base Options) (*Tree, error) {
	opts, err := m.Options(base)
	if err != nil {
		return nil, err
	}
	return Open(opts)
}
