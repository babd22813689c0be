package cipher

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/paper-repro/ekbtree/internal/israce"
)

func newEpochCipher(t *testing.T) *EpochAESGCM {
	t.Helper()
	c, err := NewEpochAESGCM(bytes.Repeat([]byte{0x42}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEpochSealOpenRoundTrip(t *testing.T) {
	c := newEpochCipher(t)
	pages := [][]byte{
		{},
		[]byte("page-bytes"),
		bytes.Repeat([]byte{0x00, 0xFF}, 513),
	}
	for _, pt := range pages {
		for _, epoch := range []uint32{0, 1, 7, 1 << 30} {
			sealed, err := c.SealEpoch(7, epoch, 12345, pt)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(sealed), len(pt)+c.Overhead(); got != want {
				t.Errorf("sealed len = %d, want %d", got, want)
			}
			opened, err := c.Open(7, sealed)
			if err != nil {
				t.Fatalf("epoch %d: %v", epoch, err)
			}
			if !bytes.Equal(opened, pt) {
				t.Errorf("epoch %d: round trip mismatch", epoch)
			}
			if got, ok := c.SealedEpoch(sealed); !ok || got != epoch {
				t.Errorf("SealedEpoch = %d,%v, want %d,true", got, ok, epoch)
			}
		}
	}
}

func TestEpochNonceIsDeterministic(t *testing.T) {
	c := newEpochCipher(t)
	sealed, err := c.SealEpoch(3, 9, 0x0102030405060708, []byte("pt"))
	if err != nil {
		t.Fatal(err)
	}
	var want [12]byte
	binary.BigEndian.PutUint32(want[:4], 9)
	binary.BigEndian.PutUint64(want[4:], 0x0102030405060708)
	if !bytes.Equal(sealed[:12], want[:]) {
		t.Errorf("nonce = %x, want %x", sealed[:12], want)
	}
	// Identical (epoch, counter, plaintext) seals are identical bytes — the
	// scheme is deterministic; uniqueness comes from the counter discipline.
	again, _ := c.SealEpoch(3, 9, 0x0102030405060708, []byte("pt"))
	if !bytes.Equal(sealed, again) {
		t.Error("same (epoch, counter) sealed differently")
	}
	// A different counter or epoch changes the ciphertext.
	other, _ := c.SealEpoch(3, 9, 0x0102030405060709, []byte("pt"))
	if bytes.Equal(sealed[12:], other[12:]) {
		t.Error("counter change did not change ciphertext")
	}
}

func TestEpochKeysAreIndependent(t *testing.T) {
	c := newEpochCipher(t)
	s0, err := c.SealEpoch(1, 0, 42, []byte("same plaintext"))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := c.SealEpoch(1, 1, 42, []byte("same plaintext"))
	if err != nil {
		t.Fatal(err)
	}
	// Same counter, same plaintext, different epoch: different key, so the
	// ciphertext bodies must differ.
	if bytes.Equal(s0[12:], s1[12:]) {
		t.Error("epoch 0 and epoch 1 produced identical ciphertext under the same counter")
	}
	// Tampering the epoch prefix re-keys the open and must fail auth.
	forged := append([]byte(nil), s0...)
	binary.BigEndian.PutUint32(forged[:4], 1)
	if _, err := c.Open(1, forged); !errors.Is(err, ErrOpen) {
		t.Errorf("Open with forged epoch prefix = %v, want ErrOpen", err)
	}
}

func TestEpochSealRefusesNodePages(t *testing.T) {
	c := newEpochCipher(t)
	if _, err := c.Seal(1, []byte("node page")); err == nil {
		t.Error("Seal(pageID>0) succeeded; epoch cipher must force SealEpoch for node pages")
	}
}

func TestEpochTamperDetection(t *testing.T) {
	c := newEpochCipher(t)
	sealed, err := c.SealEpoch(1, 2, 3, []byte("authentic page"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []struct {
		name   string
		mutate func([]byte) ([]byte, uint64)
	}{
		{"flip ciphertext bit", func(s []byte) ([]byte, uint64) {
			s[len(s)-1] ^= 0x01
			return s, 1
		}},
		{"flip counter bit", func(s []byte) ([]byte, uint64) {
			s[11] ^= 0x01
			return s, 1
		}},
		{"wrong page id", func(s []byte) ([]byte, uint64) { return s, 2 }},
		{"truncated", func(s []byte) ([]byte, uint64) { return s[:4], 1 }},
		{"empty", func(s []byte) ([]byte, uint64) { return nil, 1 }},
	} {
		t.Run(tt.name, func(t *testing.T) {
			s, id := tt.mutate(append([]byte(nil), sealed...))
			if _, err := c.Open(id, s); !errors.Is(err, ErrOpen) {
				t.Errorf("Open = %v, want ErrOpen", err)
			}
		})
	}
}

// TestOpenConsumesInPlace pins the in-place Open contract on both AES-GCM
// paths (epoch-keyed node pages, the raw-key header): a good page deciphers
// over its own bytes; a tampered one returns ErrOpen and no buffer, leaves
// nothing of the plaintext behind, and in both cases the nonce prefix — all
// SealedEpoch (and so the rotator's stale scan) reads — is untouched.
func TestOpenConsumesInPlace(t *testing.T) {
	pt := bytes.Repeat([]byte("plaintext-node-page/"), 64)
	ec := newEpochCipher(t)
	for name, id := range map[string]uint64{"epoch": 7, "header": 0} {
		seal := func() []byte {
			sealed, err := ec.SealEpoch(id, 9, 12345, pt)
			if id == 0 {
				sealed, err = ec.Seal(id, pt)
			}
			if err != nil {
				t.Fatal(err)
			}
			return sealed
		}
		sealed := seal()
		nonce := append([]byte(nil), sealed[:12]...)
		opened, err := ec.Open(id, sealed)
		if err != nil || !bytes.Equal(opened, pt) {
			t.Fatalf("%s: Open = (%d bytes, %v)", name, len(opened), err)
		}
		if &opened[0] != &sealed[12] {
			t.Errorf("%s: Open returned a fresh buffer, want the page deciphered in place", name)
		}
		if !bytes.Equal(sealed[:12], nonce) {
			t.Errorf("%s: Open overwrote the nonce prefix", name)
		}

		tampered := seal()
		tampered[len(tampered)-1] ^= 0x01 // the tag: the whole body deciphers before the mismatch shows
		nonce = append(nonce[:0], tampered[:12]...)
		opened, err = ec.Open(id, tampered)
		if !errors.Is(err, ErrOpen) || opened != nil {
			t.Fatalf("%s: Open(tampered) = (%v, %v), want (nil, ErrOpen)", name, opened, err)
		}
		if bytes.Contains(tampered, pt[:16]) {
			t.Errorf("%s: rejected page still holds deciphered plaintext", name)
		}
		if !bytes.Equal(tampered[:12], nonce) {
			t.Errorf("%s: failed Open overwrote the nonce prefix", name)
		}
	}
	sealed, _ := ec.SealEpoch(7, 9, 1, pt)
	sealed[20] ^= 0x01
	if _, err := ec.Open(7, sealed); !errors.Is(err, ErrOpen) {
		t.Fatal(err)
	}
	if e, ok := ec.SealedEpoch(sealed); !ok || e != 9 {
		t.Errorf("SealedEpoch after a failed Open = (%d, %v), want (9, true)", e, ok)
	}
}

// TestOpenAllocs guards the in-place open: no plaintext buffer, no escaping
// associated data.
func TestOpenAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("the race detector allocates")
	}
	c := newEpochCipher(t)
	sealed, err := c.SealEpoch(7, 1, 1, make([]byte, 4096))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(sealed))
	if n := testing.AllocsPerRun(100, func() {
		copy(buf, sealed)
		if _, err := c.Open(7, buf); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("EpochAESGCM.Open allocates %.1f times, want <= 1", n)
	}
}
