package ekbtree

import (
	"github.com/paper-repro/ekbtree/internal/cipher"
	"github.com/paper-repro/ekbtree/internal/keysub"
	"github.com/paper-repro/ekbtree/internal/store"
	"github.com/paper-repro/ekbtree/internal/store/file"
)

// The layer interfaces live in internal packages so their implementations
// stay private, but consumers outside this module still need to name them to
// swap a layer. These aliases re-export the contracts through the façade;
// any external type with the matching method set satisfies them.
type (
	// Substituter maps plaintext search keys to substituted search keys,
	// every one Width bytes long; Open refuses a Width that is not positive.
	Substituter = keysub.Substituter
	// NodeCipher seals and opens serialized node pages under engine-allocated
	// (epoch, counter) nonces; see the six-method contract it aliases.
	NodeCipher = cipher.NodeCipher
	// PageStore stores sealed pages and the root pointer.
	PageStore = store.PageStore
)

// NewMemStore returns a fresh page store over a page file held in memory, at
// DurabilityAsync: the store a tree without a Path gets. Share one across
// Open calls to test reopen behavior.
func NewMemStore() PageStore { return file.NewMem() }

// NewHMACSubstituter returns the pure-PRF substituter (HMAC-SHA256 truncated
// to width bytes). Substituted-key order is unrelated to plaintext order.
func NewHMACSubstituter(secret []byte, width int) (Substituter, error) {
	return keysub.NewHMAC(secret, width)
}

// NewBucketedSubstituter returns the order-preserving bucket substituter:
// HMAC output prefixed with the leading prefixBits bits of the plaintext
// key, trading bucket-prefix leakage for coarse plaintext range scans.
func NewBucketedSubstituter(secret []byte, width, prefixBits int) (Substituter, error) {
	inner, err := keysub.NewHMAC(secret, width)
	if err != nil {
		return nil, err
	}
	return keysub.NewBucketed(inner, prefixBits)
}

// NewEpochAESGCMCipher returns the epoch-keyed AES-GCM node cipher: per-epoch
// HKDF subkeys and collision-free counter nonces, supporting seal budgets and
// background re-seal rotation (see Options.SealBudget). The key must be 16,
// 24, or 32 bytes. This is the scheme Options.MasterKey derives.
func NewEpochAESGCMCipher(key []byte) (NodeCipher, error) {
	return cipher.NewEpochAESGCM(key)
}
