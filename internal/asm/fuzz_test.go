package asm_test

import (
	"errors"
	"strings"
	"testing"

	"straight/internal/asm"
	"straight/internal/program"
	"straight/internal/rasm"
	"straight/internal/sasm"
)

var assemblers = []struct {
	name     string
	assemble func(string) (*program.Image, error)
}{
	{"sasm", func(src string) (*program.Image, error) { return sasm.Assemble(src) }},
	{"rasm", rasm.Assemble},
}

// FuzzAssemble checks that the driver is total over arbitrary source
// text on both ISAs: it must never panic, and every failure must be an
// *asm.Error carrying the ISA's prefix and a line number within the
// input (line 0 is reserved for whole-image failures).
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"",
		"main:\n NOP\n",
		"main:\n ADD [1], [2]\n SYS exit, [0]\n",
		"main:\n BEZ [1], main\n J main\n",
		" .data\nv:\n .word 1, 2, v\n .asciz \"hi\"\n .text\nmain:\n LUI hi(v)\n ORi [1], lo(v)\n",
		" .entry f\nf:\n SPADD -16\n JR [2]\n",
		"main:\n ADDi [0], 99999999999\n",
		"main:\n LD [1]\n",
		"label only:\n",
		"main:\n J missing\n",
		" .word 1\n",
		" .align 3\n",
		"\x00\xff",
		// Both panicked in rasm before the shared driver.
		"main:\n ,\n",
		" .align\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		lines := strings.Count(src, "\n") + 1
		for _, a := range assemblers {
			im, err := a.assemble(src)
			if err == nil {
				if im == nil {
					t.Fatalf("%s: nil image with nil error", a.name)
				}
				continue
			}
			var ae *asm.Error
			if !errors.As(err, &ae) {
				t.Fatalf("%s: error is %T, want *asm.Error: %v", a.name, err, err)
			}
			if ae.Asm != a.name || ae.Line < 0 || ae.Line > lines {
				t.Fatalf("%s: error %q has prefix %q and line %d of %d", a.name, err, ae.Asm, ae.Line, lines)
			}
		}
	})
}
