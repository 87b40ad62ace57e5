package rasm

import (
	"testing"

	"straight/internal/isa/riscv"
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

func decodeAll(im *program.Image) []riscv.Inst {
	out := make([]riscv.Inst, len(im.Text))
	for i, w := range im.Text {
		out[i] = riscv.Decode(w)
	}
	return out
}

func TestBasicInstructions(t *testing.T) {
	im := mustAssemble(t, `
main:
    addi a0, zero, 42
    add t0, a0, a1
    sub t1, t0, a0
    lw s0, 8(sp)
    sw s0, -4(sp)
    beq a0, a1, main
    jal ra, main
    jalr zero, 0(ra)
    lui t2, 0x12345
    slli t3, t3, 5
`)
	insts := decodeAll(im)
	want := []riscv.Inst{
		{Op: riscv.ADDI, Rd: 10, Imm: 42},
		{Op: riscv.ADD, Rd: 5, Rs1: 10, Rs2: 11},
		{Op: riscv.SUB, Rd: 6, Rs1: 5, Rs2: 10},
		{Op: riscv.LW, Rd: 8, Rs1: 2, Imm: 8},
		{Op: riscv.SW, Rs1: 2, Rs2: 8, Imm: -4},
		{Op: riscv.BEQ, Rs1: 10, Rs2: 11, Imm: -20},
		{Op: riscv.JAL, Rd: 1, Imm: -24},
		{Op: riscv.JALR, Rd: 0, Rs1: 1},
		{Op: riscv.LUI, Rd: 7, Imm: 0x12345 << 12},
		{Op: riscv.SLLI, Rd: 28, Rs1: 28, Imm: 5},
	}
	if len(insts) != len(want) {
		t.Fatalf("count %d want %d", len(insts), len(want))
	}
	for i := range want {
		if insts[i] != want[i] {
			t.Errorf("inst %d: %+v want %+v", i, insts[i], want[i])
		}
	}
}

func TestPseudoExpansions(t *testing.T) {
	im := mustAssemble(t, `
main:
    nop
    mv a0, a1
    li t0, 5
    li t1, -70000
    ret
    j main
`)
	insts := decodeAll(im)
	// nop, mv = 1 each; li = 2 each; ret, j = 1 each → 8 total.
	if len(insts) != 8 {
		t.Fatalf("expanded count %d, want 8", len(insts))
	}
	if insts[0].Op != riscv.ADDI || insts[0].Rd != 0 {
		t.Errorf("nop: %+v", insts[0])
	}
	// li t1, -70000 must round-trip through lui+addi.
	hi, lo := insts[4], insts[5]
	if hi.Op != riscv.LUI || lo.Op != riscv.ADDI {
		t.Fatalf("li expansion: %v %v", hi.Op, lo.Op)
	}
	if got := uint32(hi.Imm) + uint32(lo.Imm); int32(got) != -70000 {
		t.Errorf("li value: %d", int32(got))
	}
	if insts[6].Op != riscv.JALR || insts[6].Rs1 != riscv.RegRA || insts[6].Rd != 0 {
		t.Errorf("ret: %+v", insts[6])
	}
}

func TestLaAndHiLo(t *testing.T) {
	im := mustAssemble(t, `
    .data
v:
    .word 7
    .text
main:
    la t0, v
    lui t1, %hi(v)
    addi t1, t1, %lo(v)
`)
	insts := decodeAll(im)
	addr, _ := im.Symbol("v")
	la := uint32(insts[0].Imm) + uint32(insts[1].Imm)
	if la != addr {
		t.Errorf("la reconstructs %#x, want %#x", la, addr)
	}
	hilo := uint32(insts[2].Imm) + uint32(insts[3].Imm)
	if hilo != addr {
		t.Errorf("%%hi/%%lo reconstructs %#x, want %#x", hilo, addr)
	}
}

func TestDataDirectives(t *testing.T) {
	im := mustAssemble(t, `
    .data
a:
    .word 1
b:
    .half 2, 3
c:
    .byte 4
    .align 4
d:
    .asciz "ok"
e:
    .word a
`)
	if im.Data[0] != 1 || im.Data[4] != 2 || im.Data[6] != 3 || im.Data[8] != 4 {
		t.Errorf("data: % x", im.Data[:9])
	}
	dAddr, _ := im.Symbol("d")
	if (dAddr-im.DataBase)%4 != 0 {
		t.Errorf("d not aligned: %#x", dAddr)
	}
	aAddr, _ := im.Symbol("a")
	eAddr, _ := im.Symbol("e")
	off := eAddr - im.DataBase
	got := uint32(im.Data[off]) | uint32(im.Data[off+1])<<8 |
		uint32(im.Data[off+2])<<16 | uint32(im.Data[off+3])<<24
	if got != aAddr {
		t.Errorf("pointer fixup %#x want %#x", got, aAddr)
	}
}

// TestErrors pins the full text of each error, "rasm: line N: " prefix
// included. The cases after the first seven are behaviours rasm took
// from the shared driver.
func TestErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"unknown mnemonic", "frob a0, a1", `rasm: line 1: frob: unknown mnemonic`},
		{"bad register", "addi q7, a0, 1", `rasm: line 1: bad register "q7"`},
		{"undefined label", "j nowhere", `rasm: line 1: undefined symbol "nowhere"`},
		{"imm range", "addi a0, a0, 5000", `rasm: line 1: riscv: I-immediate 5000 out of range`},
		{"duplicate label", "x:\nnop\nx:\nnop", `rasm: line 3: duplicate label "x"`},
		{"data in text", ".word 5", `rasm: line 1: .word outside .data`},
		{"bad mem operand", "lw a0, a1", `rasm: line 1: bad memory operand "a1"`},
		{"space in text", ".space 4", `rasm: line 1: .space outside .data`},
		{"empty label", ":\nnop", `rasm: line 1: invalid label ""`},
		{"digit label", "1a:\nnop", `rasm: line 1: invalid label "1a"`},
		{"align without boundary", " .align\n", `rasm: line 1: .align requires a boundary`},
		{"align not power of two", ".align 3", `rasm: line 1: bad .align boundary (power of two)`},
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

// TestMalformedLines covers two inputs that once crashed the assembler
// (index out of range): a line of nothing but separators after a label,
// and .align with no operand.
func TestMalformedLines(t *testing.T) {
	cases := []struct{ src, want string }{
		{"main:\n ,\n", ""},
		{" .align\n", "rasm: line 1: .align requires a boundary"},
	}
	for _, c := range cases {
		got := ""
		if _, err := Assemble(c.src); err != nil {
			got = err.Error()
		}
		if got != c.want {
			t.Errorf("Assemble(%q) error %q, want %q", c.src, got, c.want)
		}
	}
}

func TestEntrySelection(t *testing.T) {
	im := mustAssemble(t, ".entry go\nother:\n nop\ngo:\n nop\n")
	want, _ := im.Symbol("go")
	if im.Entry != want {
		t.Errorf("entry %#x want %#x", im.Entry, want)
	}
	im2 := mustAssemble(t, "_start:\n nop\n")
	if e, _ := im2.Symbol("_start"); im2.Entry != e {
		t.Error("_start fallback")
	}
}
