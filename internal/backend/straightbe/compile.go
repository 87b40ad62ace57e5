// Package straightbe is the STRAIGHT code generator (paper §IV). It
// lowers the SSA IR to STRAIGHT assembly, implementing the paper's
// compilation algorithm:
//
//   - Operation translation (§IV-C1): IR ops to STRAIGHT instructions.
//   - Distance fixing (§IV-C2): every basic block has a "register frame",
//     a fixed ordering of its live-in values (including phis). Every
//     predecessor edge ends with a produce sequence — one instruction per
//     frame slot (an RMOV, or in RE+ mode the deferred producer itself) —
//     followed by exactly one control-transfer slot (J, NOP for
//     fall-through, or the conditional branch shared by both edges), so a
//     consumer's operand distance is identical on every control-flow
//     path.
//   - Distance bounding (§IV-C3): when a value's distance would exceed
//     the ISA/model maximum, relay RMOVs re-produce it ("refresh"), and
//     oversized frames fall back to stack slots.
//   - Redundancy elimination RE+ (§IV-D): single-use producers are sunk
//     into frame-slot positions instead of RMOVs (Fig 10(b));
//     rematerializable values (constants, global addresses, alloca
//     addresses, the SP anchor) are regenerated on demand instead of
//     being carried through frames; and long-lived values that cross
//     loops or calls without being used are relayed through the stack
//     frame (Fig 10(c)), including the return address.
//
// Calling convention (§IV-B, Fig 5/6): the producers of the arguments are
// the last instructions before JAL, outermost argument first, so the
// callee addresses argument i at distance i+2+<instructions executed>.
// The callee returns with [SPADD +frame][retval producer][JR <link>], so
// the caller finds the return value at distance 2 after the call. Every
// value live across a call is relayed through the caller's stack frame
// (the instruction window cannot span a call of unknown dynamic length),
// with a fresh SP anchor obtained by SPADD 0 after the call returns.
package straightbe

import (
	"fmt"
	"sort"
	"strings"

	"straight/internal/ir"
	"straight/internal/program"
	"straight/internal/sasm"
	"straight/internal/sverify"
)

// Options configures code generation.
type Options struct {
	// MaxDistance bounds operand distances (the ISA maximum is 1023;
	// the paper's simulated models use 31). Zero means 1023.
	MaxDistance int
	// RedundancyElim enables the RE+ optimizations (§IV-D). Off, the
	// generator produces the naive "RAW" code the paper evaluates.
	RedundancyElim bool
}

func (o Options) maxDist() int {
	if o.MaxDistance == 0 {
		return 1023
	}
	return o.MaxDistance
}

// Compile lowers a module to STRAIGHT assembly (sasm syntax). It is
// CompileImage without the image.
func Compile(mod *ir.Module, opts Options) (string, error) {
	asm, _, err := CompileImage(mod, opts)
	return asm, err
}

// CompileImage lowers a module to STRAIGHT assembly (sasm syntax) and
// returns the text together with its linked image, the one the
// post-compile assertion verified.
func CompileImage(mod *ir.Module, opts Options) (string, *program.Image, error) {
	if opts.maxDist() < 22 {
		return "", nil, fmt.Errorf("straightbe: max distance %d too small to compile general code", opts.MaxDistance)
	}
	var b strings.Builder
	b.Grow(asmBytesPerInsn * mod.NumInsns())
	b.WriteString("# Generated by straightbe")
	if opts.RedundancyElim {
		b.WriteString(" (RE+)")
	} else {
		b.WriteString(" (RAW)")
	}
	b.WriteString("\n    .entry _start\n")

	emitData(&b, mod)

	b.WriteString("    .text\n_start:\n")
	b.WriteString("    JAL main\n")
	b.WriteString("    SYS exit, [2]\n")

	for _, f := range mod.Funcs {
		fe := newFnEmitter(f, opts)
		if err := fe.emit(&b); err != nil {
			return "", nil, fmt.Errorf("straightbe: %s: %w", f.Name, err)
		}
	}
	asm := b.String()
	im, err := verifyOutput(asm, opts)
	if err != nil {
		return "", nil, err
	}
	return asm, im, nil
}

// asmBytesPerInsn sizes the output buffer: the workloads' assembly runs
// to 26–35 bytes per optimized IR instruction.
const asmBytesPerInsn = 40

// verifyOutput is the post-compile assertion: every image this backend
// emits must prove the distance invariants (internal/sverify) at the
// bound it was compiled for. The compiler is the only component trusted
// to uphold them — hardware never re-checks (paper §IV-C) — so a
// violation here is a code-generation bug, never a property of the
// input program. It is also the only place a compiled image is
// assembled and verified: CompileImage hands this image over.
func verifyOutput(asm string, opts Options) (*program.Image, error) {
	im, err := sasm.Assemble(asm)
	if err != nil {
		return nil, fmt.Errorf("straightbe: generated assembly does not assemble: %w", err)
	}
	if err := sverify.Check(im, sverify.Config{MaxDistance: opts.maxDist()}); err != nil {
		return nil, fmt.Errorf("straightbe: generated code fails verification: %w", err)
	}
	return im, nil
}

// emitData writes the module's globals as a .data section.
func emitData(b *strings.Builder, mod *ir.Module) {
	if len(mod.Globals) == 0 {
		return
	}
	b.WriteString("    .data\n")
	for _, g := range mod.Globals {
		align := g.Align
		if align < 1 {
			align = 1
		}
		fmt.Fprintf(b, "    .align %d\n%s:\n", align, g.Name)
		writeGlobalBody(b, g)
	}
}

// writeGlobalBody renders a global's initializer, honoring pointer
// relocations (shared with the RISC-V backend's data section).
func writeGlobalBody(b *strings.Builder, g *ir.Global) {
	init := g.Init
	if len(init) == 0 && len(g.Relocs) == 0 {
		fmt.Fprintf(b, "    .space %d\n", g.Size)
		return
	}
	// Emit word-sized relocations at their offsets; raw bytes elsewhere.
	relocAt := make(map[int]string, len(g.Relocs))
	for off, sym := range g.Relocs {
		relocAt[off] = sym
	}
	i := 0
	for i < g.Size {
		if sym, ok := relocAt[i]; ok {
			fmt.Fprintf(b, "    .word %s\n", sym)
			i += 4
			continue
		}
		// Collect a run of plain bytes up to the next reloc.
		j := i
		for j < g.Size {
			if _, ok := relocAt[j]; ok {
				break
			}
			j++
		}
		emitByteRun(b, init, i, j)
		i = j
	}
}

func emitByteRun(b *strings.Builder, init []byte, from, to int) {
	byteAt := func(k int) byte {
		if k < len(init) {
			return init[k]
		}
		return 0
	}
	// All zero? use .space.
	allZero := true
	for k := from; k < to; k++ {
		if byteAt(k) != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		fmt.Fprintf(b, "    .space %d\n", to-from)
		return
	}
	const perLine = 12
	for k := from; k < to; k += perLine {
		end := k + perLine
		if end > to {
			end = to
		}
		parts := make([]string, 0, perLine)
		for m := k; m < end; m++ {
			parts = append(parts, fmt.Sprintf("%d", byteAt(m)))
		}
		fmt.Fprintf(b, "    .byte %s\n", strings.Join(parts, ", "))
	}
}

// sortedByID returns the values sorted by SSA ID — the canonical frame
// order (any deterministic total order works; ID order keeps frames
// stable across predecessors).
func sortedByID(set map[*ir.Value]bool) []*ir.Value {
	out := make([]*ir.Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
