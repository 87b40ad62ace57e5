package sasm

import (
	"strings"
	"testing"

	"straight/internal/isa/straight"
	"straight/internal/program"
)

func mustAssemble(t *testing.T, src string) *program.Image {
	t.Helper()
	im, err := Assemble(src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	return im
}

func TestAssembleBasicInstructions(t *testing.T) {
	im := mustAssemble(t, `
main:
    NOP
    ADD [1], [2]
    ADDi [0], 42
    SLTiu [3], -1
    ST [4], [7]
    ST [4], [7], 4
    LD [1], 8
    RMOV [10]
    SPADD -16
    LUI 0x123456
    JR [5]
    SYS exit, [1]
`)
	want := []straight.Inst{
		{Op: straight.NOP},
		{Op: straight.ADD, Src1: 1, Src2: 2},
		{Op: straight.ADDI, Src1: 0, Imm: 42},
		{Op: straight.SLTIU, Src1: 3, Imm: -1},
		{Op: straight.SW, Src1: 4, Src2: 7},
		{Op: straight.SW, Src1: 4, Src2: 7, Imm: 4},
		{Op: straight.LW, Src1: 1, Imm: 8},
		{Op: straight.RMOV, Src1: 10},
		{Op: straight.SPADD, Imm: -16},
		{Op: straight.LUI, Imm: 0x123456},
		{Op: straight.JR, Src1: 5},
		{Op: straight.SYS, Src1: 1, Imm: straight.SysExit},
	}
	if len(im.Text) != len(want) {
		t.Fatalf("text length %d, want %d", len(im.Text), len(want))
	}
	for i, w := range im.Text {
		got, err := straight.Decode(w)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want[i] {
			t.Errorf("inst %d: got %v want %v", i, got, want[i])
		}
	}
	if im.Entry != im.TextBase {
		t.Errorf("entry %#x, want text base %#x", im.Entry, im.TextBase)
	}
}

func TestBranchTargetsArePCRelative(t *testing.T) {
	im := mustAssemble(t, `
main:
    NOP
back:
    BEZ [1], back
    BNZ [1], fwd
    J back
fwd:
    JAL main
`)
	insts := decodeAll(t, im)
	if insts[1].Imm != 0 {
		t.Errorf("BEZ back: imm %d, want 0 (branch to itself)", insts[1].Imm)
	}
	if insts[2].Imm != 2 {
		t.Errorf("BNZ fwd: imm %d, want 2", insts[2].Imm)
	}
	if insts[3].Imm != -2 {
		t.Errorf("J back: imm %d, want -2", insts[3].Imm)
	}
	if insts[4].Imm != -4 {
		t.Errorf("JAL main: imm %d, want -4", insts[4].Imm)
	}
}

func TestDataSectionAndSymbols(t *testing.T) {
	im := mustAssemble(t, `
    .data
vals:
    .word 1, 2, 0x30
msg:
    .asciz "hi"
    .align 4
arr:
    .space 8
ptr:
    .word msg
    .text
main:
    LUI hi(vals)
    ORi [1], lo(vals)
    LD [1], 0
    ADDi [0], 0
    SYS exit, [1]
`)
	vals, ok := im.Symbol("vals")
	if !ok || vals != im.DataBase {
		t.Fatalf("vals symbol: %#x,%v", vals, ok)
	}
	msg, _ := im.Symbol("msg")
	if msg != im.DataBase+12 {
		t.Errorf("msg at %#x, want %#x", msg, im.DataBase+12)
	}
	arr, _ := im.Symbol("arr")
	if arr%4 != 0 {
		t.Errorf("arr not aligned: %#x", arr)
	}
	if im.Data[0] != 1 || im.Data[4] != 2 || im.Data[8] != 0x30 {
		t.Errorf("word data wrong: % x", im.Data[:12])
	}
	if string(im.Data[12:15]) != "hi\x00" {
		t.Errorf("asciz data wrong: %q", im.Data[12:15])
	}
	// ptr should hold the address of msg, little-endian.
	ptr, _ := im.Symbol("ptr")
	off := ptr - im.DataBase
	got := uint32(im.Data[off]) | uint32(im.Data[off+1])<<8 | uint32(im.Data[off+2])<<16 | uint32(im.Data[off+3])<<24
	if got != msg {
		t.Errorf("ptr fixup: %#x want %#x", got, msg)
	}
	// LUI hi(vals) then ORi lo(vals) must reconstruct the address.
	insts := decodeAll(t, im)
	reconstructed := straight.LUIValue(insts[0].Imm) | uint32(insts[1].Imm)
	if reconstructed != vals {
		t.Errorf("hi/lo reconstruction: %#x want %#x", reconstructed, vals)
	}
}

func TestEntryDirective(t *testing.T) {
	im := mustAssemble(t, `
    .entry start
pre:
    NOP
start:
    NOP
`)
	want, _ := im.Symbol("start")
	if im.Entry != want {
		t.Errorf("entry %#x want %#x", im.Entry, want)
	}
}

// TestErrors pins the full text of each error, "sasm: line N: " prefix
// included.
func TestErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"unknown mnemonic", "FOO [1], [2]", `sasm: line 1: unknown mnemonic "FOO"`},
		{"bad distance", "ADD [9999], [1]", `sasm: line 1: ADD src1: distance "[9999]" out of range 0..1023`},
		{"missing operand", "ADD [1]", `sasm: line 1: ADD expects 2 operands, got 1`},
		{"undefined label", "J nowhere", `sasm: line 1: undefined symbol "nowhere"`},
		{"duplicate label", "a:\nNOP\na:\nNOP", `sasm: line 3: duplicate label "a"`},
		{"data in text", ".word 1", `sasm: line 1: .word outside .data`},
		{"insn in data", ".data\nNOP", `sasm: line 2: instruction "NOP" in data section`},
		{"imm overflow", "ADDi [1], 100000", `sasm: line 1: straight: encode ADDi: imm 100000 out of 14-bit range`},
		{"store offset overflow", "ST [1], [2], 100", `sasm: line 1: straight: encode SW: imm 100 out of 4-bit range`},
		{"bad sys", "SYS frobnicate", `sasm: line 1: bad SYS function "frobnicate"`},
		{"bad entry", ".entry nowhere\nNOP", `sasm: line 0: undefined .entry symbol "nowhere"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Assemble(c.src)
			if err == nil || err.Error() != c.want {
				t.Errorf("error %v, want %s", err, c.want)
			}
		})
	}
}

func TestCommentsAndSeparators(t *testing.T) {
	im := mustAssemble(t, `
main:
    ADD [4] [3]      # paper-style space separation
    ADDi [1], 1      ; semicolon comment
    SLT [2],[4]      // C-style comment
`)
	insts := decodeAll(t, im)
	if insts[0] != (straight.Inst{Op: straight.ADD, Src1: 4, Src2: 3}) {
		t.Errorf("space-separated operands: %v", insts[0])
	}
	if len(insts) != 3 {
		t.Errorf("expected 3 instructions, got %d", len(insts))
	}
}

func TestDisassembleRoundTrip(t *testing.T) {
	src := `
main:
    ADDi [0], 7
    RMOV [1]
    SYS exit, [1]
`
	im := mustAssemble(t, src)
	dis := Disassemble(im)
	for _, want := range []string{"main:", "ADDi [0], 7", "RMOV [1]", "SYS 0, [1], [0]"} {
		if !strings.Contains(dis, want) {
			t.Errorf("disassembly missing %q:\n%s", want, dis)
		}
	}
}

func decodeAll(t *testing.T, im *program.Image) []straight.Inst {
	t.Helper()
	out := make([]straight.Inst, len(im.Text))
	for i, w := range im.Text {
		inst, err := straight.Decode(w)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		out[i] = inst
	}
	return out
}
