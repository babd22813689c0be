package cipher

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func testCiphers(t *testing.T) map[string]NodeCipher {
	t.Helper()
	return map[string]NodeCipher{
		"aes-gcm-ctr": newEpochCipher(t),
		"plaintext":   Plaintext{},
	}
}

// TestSealOpenRoundTrip runs both halves of the contract on every cipher: the
// header path (Seal, page 0) and the node path (SealEpoch, whose epoch must
// read back through SealedEpoch without deciphering).
func TestSealOpenRoundTrip(t *testing.T) {
	pages := []struct {
		name string
		pt   []byte
	}{
		{"empty", []byte{}},
		{"small", []byte("page-bytes")},
		{"binary", bytes.Repeat([]byte{0x00, 0xFF}, 513)},
		{"large", bytes.Repeat([]byte("0123456789abcdef"), 4096)},
	}
	for name, c := range testCiphers(t) {
		for _, tt := range pages {
			t.Run(name+"/"+tt.name, func(t *testing.T) {
				header, err := c.Seal(0, tt.pt)
				if err != nil {
					t.Fatal(err)
				}
				node, err := c.SealEpoch(7, 9, 12345, tt.pt)
				if err != nil {
					t.Fatal(err)
				}
				if got, ok := c.SealedEpoch(node); !ok || got != 9 {
					t.Errorf("SealedEpoch = %d,%v, want 9,true", got, ok)
				}
				for id, sealed := range map[uint64][]byte{0: header, 7: node} {
					if got, want := len(sealed), len(tt.pt)+c.Overhead(); got != want {
						t.Errorf("page %d: sealed len = %d, want %d", id, got, want)
					}
					opened, err := c.Open(id, sealed)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(opened, tt.pt) {
						t.Errorf("page %d: round trip mismatch: got %d bytes, want %d", id, len(opened), len(tt.pt))
					}
				}
			})
		}
	}
}

func TestPlaintextRejectsShortPage(t *testing.T) {
	if _, err := (Plaintext{}).Open(7, make([]byte, 11)); !errors.Is(err, ErrOpen) {
		t.Errorf("Open of an 11-byte page = %v, want ErrOpen", err)
	}
	if _, ok := (Plaintext{}).SealedEpoch(make([]byte, 11)); ok {
		t.Error("SealedEpoch read an epoch out of an 11-byte page")
	}
}

func TestAESGCMHidesPlaintext(t *testing.T) {
	c := newEpochCipher(t)
	pt := []byte("super-secret-search-key-material")
	sealed, err := c.SealEpoch(1, 0, 1, pt)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(sealed, pt[:8]) {
		t.Error("sealed page leaks plaintext bytes")
	}
}

func TestAESGCMTamperDetection(t *testing.T) {
	c := newEpochCipher(t)
	header, err := c.Seal(0, []byte("authentic page"))
	if err != nil {
		t.Fatal(err)
	}
	node, err := c.SealEpoch(1, 3, 99, []byte("authentic page"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name   string
		mutate func(s []byte, id uint64) ([]byte, uint64)
	}{
		{"flip ciphertext bit", func(s []byte, id uint64) ([]byte, uint64) {
			s[len(s)-1] ^= 0x01
			return s, id
		}},
		{"flip nonce bit", func(s []byte, id uint64) ([]byte, uint64) {
			s[0] ^= 0x01
			return s, id
		}},
		{"wrong page id", func(s []byte, id uint64) ([]byte, uint64) { return s, id + 2 }},
		{"truncated", func(s []byte, id uint64) ([]byte, uint64) { return s[:4], id }},
		{"empty", func(s []byte, id uint64) ([]byte, uint64) { return nil, id }},
	} {
		for id, sealed := range map[uint64][]byte{0: header, 1: node} {
			t.Run(fmt.Sprintf("%s/page%d", tt.name, id), func(t *testing.T) {
				s, id := tt.mutate(append([]byte(nil), sealed...), id)
				if _, err := c.Open(id, s); !errors.Is(err, ErrOpen) {
					t.Errorf("Open = %v, want ErrOpen", err)
				}
			})
		}
	}
}

func TestNewEpochAESGCMKeySizes(t *testing.T) {
	for _, size := range []int{16, 24, 32} {
		if _, err := NewEpochAESGCM(make([]byte, size)); err != nil {
			t.Errorf("key size %d rejected: %v", size, err)
		}
	}
	for _, size := range []int{0, 15, 31, 33} {
		if _, err := NewEpochAESGCM(make([]byte, size)); err == nil {
			t.Errorf("key size %d accepted", size)
		}
	}
}

// TestHeaderSealIsRandomized pins the one scheme-chosen nonce left: the
// page-0 header path.
func TestHeaderSealIsRandomized(t *testing.T) {
	c := newEpochCipher(t)
	s1, _ := c.Seal(0, []byte("same page"))
	s2, _ := c.Seal(0, []byte("same page"))
	if bytes.Equal(s1, s2) {
		t.Error("two seals of the same header produced identical ciphertext")
	}
}
