package resultstore

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
)

// KeySize is the byte length of a content address.
const KeySize = sha256.Size

// Key is the content address of one stored result: a SHA-256 digest of
// every input that can affect it.
type Key [KeySize]byte

// String returns the key in hex (the wire and log representation).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// ParseKey parses the hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	b, err := hex.DecodeString(s)
	if err != nil {
		return k, fmt.Errorf("resultstore: bad key %q: %w", s, err)
	}
	if len(b) != KeySize {
		return k, fmt.Errorf("resultstore: bad key length %d, want %d", len(b), KeySize)
	}
	copy(k[:], b)
	return k, nil
}

// KeyHasher accumulates labeled fields into a Key. Each field is framed
// as (len(label), label, len(value), value) so no concatenation of
// fields can collide with a different field split, and the domain
// passed to NewKeyHasher separates key schemas (bump it whenever the
// set or meaning of hashed fields changes).
//
// Frames and string values are staged in buf and reach the hash in
// large writes, so hashing a string field never converts (and copies)
// it to a []byte.
type KeyHasher struct {
	h   hash.Hash
	n   int // bytes pending in buf
	buf [256]byte
}

// NewKeyHasher starts a hash in the given schema domain.
func NewKeyHasher(domain string) *KeyHasher {
	kh := &KeyHasher{h: sha256.New()}
	kh.String("domain", domain)
	return kh
}

func (kh *KeyHasher) flush() {
	kh.h.Write(kh.buf[:kh.n])
	kh.n = 0
}

func (kh *KeyHasher) put(s string) {
	for {
		c := copy(kh.buf[kh.n:], s)
		kh.n += c
		if s = s[c:]; s == "" {
			return
		}
		kh.flush()
	}
}

func (kh *KeyHasher) putLen(n int) {
	if len(kh.buf)-kh.n < 4 {
		kh.flush()
	}
	binary.LittleEndian.PutUint32(kh.buf[kh.n:], uint32(n))
	kh.n += 4
}

// header frames label and announces a value of n bytes.
func (kh *KeyHasher) header(label string, n int) {
	kh.putLen(len(label))
	kh.put(label)
	kh.putLen(n)
}

// Bytes adds a labeled byte field.
func (kh *KeyHasher) Bytes(label string, value []byte) {
	kh.header(label, len(value))
	kh.flush()
	kh.h.Write(value)
}

// String adds a labeled string field.
func (kh *KeyHasher) String(label, value string) {
	kh.header(label, len(value))
	kh.put(value)
}

// Strings adds one labeled field whose value is the concatenation of
// parts, without building it: the key equals String(label,
// strings.Join(parts, "")).
func (kh *KeyHasher) Strings(label string, parts ...string) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	kh.header(label, n)
	for _, p := range parts {
		kh.put(p)
	}
}

// Int adds a labeled integer field.
func (kh *KeyHasher) Int(label string, value int64) {
	kh.header(label, 8)
	if len(kh.buf)-kh.n < 8 {
		kh.flush()
	}
	binary.LittleEndian.PutUint64(kh.buf[kh.n:], uint64(value))
	kh.n += 8
}

// Sum finalizes the key. The hasher remains usable (further fields
// produce a new, extended key), though callers normally discard it.
func (kh *KeyHasher) Sum() Key {
	kh.flush()
	var k Key
	copy(k[:], kh.h.Sum(kh.buf[:0])) // into buf: k itself would escape
	return k
}
