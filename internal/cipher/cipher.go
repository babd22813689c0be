// Package cipher implements node encipherment: whole-page authenticated
// encryption for serialized B-tree nodes. The store layer below only ever
// holds sealed pages; the node layer above only ever sees opened plaintext.
//
// Each page is bound to its page ID via associated data, so an adversary with
// write access to the store cannot swap two valid ciphertext pages without
// detection.
package cipher

import (
	stdaes "crypto/aes"
	stdcipher "crypto/cipher"
	"crypto/hkdf"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"github.com/paper-repro/ekbtree/internal/pagebuf"
)

// ErrOpen is returned when a sealed page fails authentication or is
// structurally invalid.
var ErrOpen = errors.New("cipher: page authentication failed")

// NodeCipher seals and opens serialized node pages under a key-epoch scheme
// with caller-supplied nonces: the engine allocates a collision-free (epoch,
// counter) pair for every node-page seal and the cipher never picks a nonce
// for one. Implementations must be safe for concurrent use.
type NodeCipher interface {
	// Seal enciphers the façade's header for page ID 0 — the only page that
	// must open before any epoch state is known — returning a buffer the
	// caller owns, which may come from pagebuf (the implementations here take
	// every sealed page from pagebuf.Get, and the page store gives it back).
	// Node pages go through SealEpoch. plaintext is the caller's and is reused
	// once Seal (or SealEpoch) returns; implementations must not retain it.
	Seal(pageID uint64, plaintext []byte) ([]byte, error)
	// SealEpoch enciphers plaintext under key epoch's derived key using the
	// deterministic nonce epoch(32-bit big-endian) || counter(64-bit
	// big-endian), returning a buffer the caller owns, which may come from
	// pagebuf, as Seal's. The caller must never reuse an (epoch, counter)
	// pair.
	SealEpoch(pageID uint64, epoch uint32, counter uint64, plaintext []byte) ([]byte, error)
	// SealedEpoch reports the key epoch a sealed page was produced under
	// (readable from the nonce prefix without deciphering), or false if the
	// buffer is too short to carry one.
	SealedEpoch(sealed []byte) (uint32, bool)
	// Open deciphers a sealed page previously produced by Seal or SealEpoch
	// with the same page ID, or returns ErrOpen on tampering/mismatch. Open
	// CONSUMES sealed: the caller must own the buffer (the engine reads each
	// page with store.PageStore.ReadPageInto into a block of its own) and must
	// not read its contents afterwards, because an implementation may
	// decipher in place and return a plaintext that aliases it. On error the buffer's page body is
	// unspecified and nothing aliasing it is returned; the nonce prefix is
	// left intact either way.
	Open(pageID uint64, sealed []byte) ([]byte, error)
	// Overhead returns the number of bytes sealing adds to a plaintext page.
	Overhead() int
	// Name identifies the scheme.
	Name() string
}

// EpochSealer is the name NodeCipher's epoch methods had while they were an
// optional extension; bench/ still spells it. Delete it the next time bench/
// may be touched.
type EpochSealer = NodeCipher

// aadPool recycles the 8-byte associated-data buffers: an AEAD is called
// through an interface, so a stack array handed to it would be moved to the
// heap on every seal and open.
var aadPool = sync.Pool{New: func() any { return new([8]byte) }}

// sealPage appends the ciphertext and tag of plaintext, bound to pageID, to
// dst, which holds the nonce.
func sealPage(aead stdcipher.AEAD, pageID uint64, dst, plaintext []byte) []byte {
	aad := aadPool.Get().(*[8]byte)
	binary.BigEndian.PutUint64(aad[:], pageID)
	out := aead.Seal(dst, dst[:aead.NonceSize()], plaintext, aad[:])
	aadPool.Put(aad)
	return out
}

// openPage deciphers sealed (nonce || ciphertext+tag) in place, over its own
// ciphertext bytes. An AEAD may decipher while it authenticates, so on a tag
// mismatch the body is wiped rather than left half-deciphered, and the buffer
// is not returned; the nonce prefix is untouched either way.
func openPage(aead stdcipher.AEAD, pageID uint64, sealed []byte) ([]byte, error) {
	nonceSize := aead.NonceSize()
	if len(sealed) < nonceSize+aead.Overhead() {
		return nil, ErrOpen
	}
	aad := aadPool.Get().(*[8]byte)
	binary.BigEndian.PutUint64(aad[:], pageID)
	pt, err := aead.Open(sealed[nonceSize:nonceSize], sealed[:nonceSize], sealed[nonceSize:], aad[:])
	aadPool.Put(aad)
	if err != nil {
		clear(sealed[nonceSize:])
		return nil, ErrOpen
	}
	return pt, nil
}

// EpochAESGCM seals pages with AES-256-GCM under per-epoch HKDF-derived keys
// and caller-supplied counter nonces: nonce = epoch(4B BE) || counter(8B BE),
// so every seal in the tree's lifetime uses a distinct nonce as long as the
// engine never reissues a counter (a durable high-water mark guarantees that
// across crash and reopen). The sealed layout is nonce || ct+tag — the epoch
// rides in the nonce prefix, costing no extra bytes — and the big-endian page
// ID is the associated data.
//
// Page ID 0 (the façade's header/meta page) is sealed with the RAW subkey and
// a random nonce: the header must be decipherable before any epoch state is
// known, and a header written under the same key by a scheme with another
// name then fails closed with an honest config mismatch (it deciphers but
// records that name) rather than a spurious wrong-key error.
type EpochAESGCM struct {
	key []byte         // cipher subkey; HKDF secret for per-epoch keys
	raw stdcipher.AEAD // raw-subkey AEAD for the page-0 header path

	mu    sync.RWMutex
	aeads map[uint32]stdcipher.AEAD // derived per-epoch AEADs, built on demand
}

// NewEpochAESGCM returns an epoch-keyed AES-GCM node cipher. The key must be
// 16, 24, or 32 bytes; per-epoch keys are always 32-byte HKDF-SHA256 outputs.
func NewEpochAESGCM(key []byte) (*EpochAESGCM, error) {
	block, err := stdaes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	raw, err := stdcipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	return &EpochAESGCM{
		key:   append([]byte(nil), key...),
		raw:   raw,
		aeads: make(map[uint32]stdcipher.AEAD),
	}, nil
}

// epochAEAD returns the AEAD for one key epoch, deriving and caching it on
// first use. Derivation is HKDF-SHA256(subkey, info="ekbtree/cipher/epoch/<e>")
// to a 32-byte AES-256 key — epochs are computationally independent, so
// exhausting one epoch's nonce space says nothing about another's.
func (c *EpochAESGCM) epochAEAD(epoch uint32) (stdcipher.AEAD, error) {
	c.mu.RLock()
	aead, ok := c.aeads[epoch]
	c.mu.RUnlock()
	if ok {
		return aead, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if aead, ok := c.aeads[epoch]; ok {
		return aead, nil
	}
	ek, err := hkdf.Key(sha256.New, c.key, nil, fmt.Sprintf("ekbtree/cipher/epoch/%d", epoch), 32)
	if err != nil {
		return nil, fmt.Errorf("cipher: epoch key: %w", err)
	}
	block, err := stdaes.NewCipher(ek)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	aead, err = stdcipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("cipher: %w", err)
	}
	c.aeads[epoch] = aead
	return aead, nil
}

// Seal handles only page 0 (the header path, raw key + random nonce). Node
// pages must go through SealEpoch; sealing one here would silently burn the
// collision-free guarantee, so it is refused outright.
func (c *EpochAESGCM) Seal(pageID uint64, plaintext []byte) ([]byte, error) {
	if pageID != 0 {
		return nil, fmt.Errorf("cipher: epoch cipher requires SealEpoch for page %d", pageID)
	}
	nonceSize := c.raw.NonceSize()
	out := pagebuf.Get(nonceSize + len(plaintext) + c.raw.Overhead())[:nonceSize]
	if _, err := rand.Read(out); err != nil {
		return nil, fmt.Errorf("cipher: nonce: %w", err)
	}
	return sealPage(c.raw, pageID, out, plaintext), nil
}

func (c *EpochAESGCM) SealEpoch(pageID uint64, epoch uint32, counter uint64, plaintext []byte) ([]byte, error) {
	aead, err := c.epochAEAD(epoch)
	if err != nil {
		return nil, err
	}
	nonceSize := aead.NonceSize()
	out := pagebuf.Get(nonceSize + len(plaintext) + aead.Overhead())[:nonceSize]
	binary.BigEndian.PutUint32(out[:4], epoch)
	binary.BigEndian.PutUint64(out[4:nonceSize], counter)
	return sealPage(aead, pageID, out, plaintext), nil
}

func (c *EpochAESGCM) Open(pageID uint64, sealed []byte) ([]byte, error) {
	if pageID == 0 {
		return openPage(c.raw, pageID, sealed)
	}
	epoch, ok := c.SealedEpoch(sealed)
	if !ok {
		return nil, ErrOpen
	}
	aead, err := c.epochAEAD(epoch)
	if err != nil {
		return nil, err
	}
	return openPage(aead, pageID, sealed)
}

func (c *EpochAESGCM) SealedEpoch(sealed []byte) (uint32, bool) {
	if len(sealed) < c.Overhead() {
		return 0, false
	}
	return binary.BigEndian.Uint32(sealed[:4]), true
}

func (c *EpochAESGCM) Overhead() int { return c.raw.NonceSize() + c.raw.Overhead() }

func (c *EpochAESGCM) Name() string { return "aes-gcm-ctr" }

// Plaintext is the null epoch cipher for tests and replays: a sealed page is
// its clear 12-byte epoch || counter nonce followed by the plaintext, so an
// engine over it runs the same allocator and rotator path as over a real
// cipher. It provides no confidentiality or integrity and must never be used
// in production.
type Plaintext struct{}

const plainNonceLen = 12

func (p Plaintext) Seal(pageID uint64, plaintext []byte) ([]byte, error) {
	return p.SealEpoch(pageID, 0, 0, plaintext)
}

func (Plaintext) SealEpoch(_ uint64, epoch uint32, counter uint64, plaintext []byte) ([]byte, error) {
	out := pagebuf.Get(plainNonceLen + len(plaintext))
	binary.BigEndian.PutUint32(out[:4], epoch)
	binary.BigEndian.PutUint64(out[4:plainNonceLen], counter)
	copy(out[plainNonceLen:], plaintext)
	return out, nil
}

func (Plaintext) SealedEpoch(sealed []byte) (uint32, bool) {
	if len(sealed) < plainNonceLen {
		return 0, false
	}
	return binary.BigEndian.Uint32(sealed[:4]), true
}

func (Plaintext) Open(_ uint64, sealed []byte) ([]byte, error) {
	if len(sealed) < plainNonceLen {
		return nil, ErrOpen
	}
	return sealed[plainNonceLen:], nil
}

func (Plaintext) Overhead() int { return plainNonceLen }

func (Plaintext) Name() string { return "plaintext" }
