package asm_test

import (
	"testing"

	"straight/internal/asm"
)

// TestParseInt pins ParseInt's results: literals are read as signed
// 64-bit values, so unsigned 32-bit literals do not wrap.
func TestParseInt(t *testing.T) {
	for _, tc := range []struct {
		tok  string
		want int64
		ok   bool
	}{
		{"0xFFFFFFFF", 4294967295, true},
		{"-1", -1, true},
		{"0x1_0000_0000", 4294967296, true},
		{"foo", 0, false},
	} {
		got, err := asm.ParseInt(tc.tok)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseInt(%q) = %d, %v; want %d, ok %v", tc.tok, got, err, tc.want, tc.ok)
		}
	}
}

// TestLooksNumeric checks that LooksNumeric is false only for tokens
// ParseInt rejects, so probing with it first changes no result.
func TestLooksNumeric(t *testing.T) {
	for _, tok := range []string{
		"", "_", "-", "+", "-_", "5", "_5", "-_5", "_-5", "+5", "-0x10", "0x", "0b101", "1_000",
		"foo", "_foo", "-foo", "x5", "$5", ".L1", "[3]", "hi(x)", "%lo(x)", "9abc",
	} {
		_, err := asm.ParseInt(tok)
		if !asm.LooksNumeric(tok) && err == nil {
			t.Errorf("LooksNumeric(%q) = false, but ParseInt accepts it", tok)
		}
	}
}
