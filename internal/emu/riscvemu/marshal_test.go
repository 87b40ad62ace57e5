package riscvemu

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"straight/internal/rasm"
)

// marshalSrc loops with live stack traffic so a mid-run checkpoint
// carries non-trivial register, counter, and memory state.
const marshalSrc = `
main:
    addi sp, sp, -16
    addi t0, zero, 1234
    sw   t0, 0(sp)
    addi t1, zero, 10      # n
    addi t2, zero, 0       # acc
loop:
    beq  t1, zero, done
    add  t2, t2, t1
    addi t1, t1, -1
    j    loop
done:
    lw   t3, 0(sp)
    add  a0, t2, t3        # 55 + 1234 = 1289
    addi sp, sp, 16
    addi a7, zero, 0
    ecall
`

// ckptHeadSize is the fixed-size portion of a serialized checkpoint:
// magic, pc, count, exited, exitCode, and the 32 registers.
const ckptHeadSize = len(ckptMagic) + 4 + 8 + 1 + 4 + 32*4

func marshalMachine(t *testing.T, steps int) (*Machine, *Checkpoint) {
	t.Helper()
	im, err := rasm.Assemble(marshalSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := New(im)
	for i := 0; i < steps; i++ {
		if err := m.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return m, m.Checkpoint()
}

func finishRun(t *testing.T, m *Machine) (uint64, int32, uint32) {
	t.Helper()
	for m.Step() == nil {
	}
	exited, code := m.Exited()
	if !exited {
		t.Fatal("machine did not exit")
	}
	return m.InstCount(), code, m.PC()
}

// TestCheckpointMarshalRoundTrip: a decoded checkpoint must drive a
// machine to the identical final state as the original, and two
// checkpoints of the same architectural state must encode to identical
// bytes (the canonical-encoding property the content-addressed window
// cache relies on).
func TestCheckpointMarshalRoundTrip(t *testing.T) {
	m, ck := marshalMachine(t, 13)
	enc, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	enc2, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, enc2) {
		t.Fatal("two marshals of one checkpoint differ")
	}
	// A second, independent machine reaching the same state must encode
	// identically (canonical bytes, not pointer-dependent ones).
	_, ckB := marshalMachine(t, 13)
	encB, err := ckB.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, encB) {
		t.Fatal("checkpoints of identical states encode differently")
	}

	var dec Checkpoint
	if err := dec.UnmarshalBinary(enc); err != nil {
		t.Fatal(err)
	}
	if dec.Count() != ck.Count() || dec.PC() != ck.PC() {
		t.Fatalf("decoded header (count=%d pc=%#x) != original (count=%d pc=%#x)",
			dec.Count(), dec.PC(), ck.Count(), ck.PC())
	}
	for i := 0; i < 32; i++ {
		if dec.Reg(i) != ck.Reg(i) {
			t.Fatalf("decoded x%d = %#x, original %#x", i, dec.Reg(i), ck.Reg(i))
		}
	}

	m.Restore(ck)
	wantCount, wantCode, wantPC := finishRun(t, m)
	if wantCode != 1289 {
		t.Fatalf("exit code = %d, want 1289", wantCode)
	}
	m.Restore(&dec)
	gotCount, gotCode, gotPC := finishRun(t, m)
	if gotCount != wantCount || gotCode != wantCode || gotPC != wantPC {
		t.Fatalf("decoded checkpoint replays to (count=%d code=%d pc=%#x), original to (count=%d code=%d pc=%#x)",
			gotCount, gotCode, gotPC, wantCount, wantCode, wantPC)
	}
}

// TestCheckpointUnmarshalCorrupted: every corruption class must be
// rejected, never silently half-loaded.
func TestCheckpointUnmarshalCorrupted(t *testing.T) {
	_, ck := marshalMachine(t, 13)
	enc, err := ck.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), enc...)
		return f(b)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated-header", enc[:10]},
		{"bad-magic", mut(func(b []byte) []byte { b[0] ^= 0xFF; return b })},
		{"bad-exited-flag", mut(func(b []byte) []byte { b[len(ckptMagic)+12] = 7; return b })},
		{"truncated-memory", enc[:len(enc)-5]},
		{"trailing-garbage", mut(func(b []byte) []byte { return append(b, 0xAB) })},
		{"inflated-page-count", mut(func(b []byte) []byte { b[ckptHeadSize]++; return b })},
	}
	for _, c := range cases {
		var dec Checkpoint
		err := dec.UnmarshalBinary(c.data)
		if err == nil {
			t.Errorf("%s: UnmarshalBinary accepted corrupted input", c.name)
		} else if !strings.HasPrefix(err.Error(), "riscvemu: checkpoint decode: ") {
			t.Errorf("%s: error %q lacks the package prefix", c.name, err)
		}
	}
}

// TestCheckpointBytesPinned pins the serialized checkpoint layout: the
// bytes are the content address of every cached sample window, so any
// change to them silently invalidates existing result stores.
func TestCheckpointBytesPinned(t *testing.T) {
	for _, c := range []struct {
		steps int
		want  string
	}{
		{13, "d93ef00e981ba6a8c242a44b438870b1865652cf1841f234557e139189d6a2f2"},
		{1000, "cc3fec5cbfd06c4b660f680186d22fd775172461899d4a43a0d343dcc6ee2b7f"}, // past exit: exited flag and exit code set
	} {
		im, err := rasm.Assemble(marshalSrc)
		if err != nil {
			t.Fatal(err)
		}
		m := New(im)
		if err := m.RunUntil(uint64(c.steps)); err != nil {
			t.Fatal(err)
		}
		enc, err := m.Checkpoint().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(enc)); got != c.want {
			t.Errorf("checkpoint after %d steps: sha256 %s, want %s", c.steps, got, c.want)
		}
	}
}
