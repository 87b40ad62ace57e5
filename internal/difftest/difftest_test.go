// Package difftest_test is the toolchain's differential fuzzer: it
// generates random (terminating, well-defined) MiniC programs and
// requires identical console output from every execution engine — the IR
// interpreter, the RV32IM toolchain+emulator, and the STRAIGHT
// toolchain+emulator in RAW and RE+ modes at both the ISA-maximum and the
// model distance bound. Any divergence pinpoints a compiler or ISA
// semantics bug.
package difftest_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"straight/internal/backend/riscvbe"
	"straight/internal/backend/straightbe"
	"straight/internal/emu/riscvemu"
	"straight/internal/emu/straightemu"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/rasm"
	"straight/internal/sverify"
)

// progGen builds random programs from a bounded grammar. All generated
// code terminates (loops are counted) and avoids undefined behaviour
// (array indices are masked, shift amounts bounded, division guarded).
type progGen struct {
	r    *rand.Rand
	vars []string
	sb   strings.Builder
	temp int
}

func (g *progGen) expr(depth int) string {
	if depth <= 0 || g.r.Intn(3) == 0 {
		switch g.r.Intn(3) {
		case 0:
			return fmt.Sprint(g.r.Intn(2000) - 1000)
		case 1:
			return g.vars[g.r.Intn(len(g.vars))]
		default:
			return fmt.Sprintf("G[%s & 7]", g.vars[g.r.Intn(len(g.vars))])
		}
	}
	a := g.expr(depth - 1)
	b := g.expr(depth - 1)
	switch g.r.Intn(10) {
	case 0:
		return fmt.Sprintf("(%s + %s)", a, b)
	case 1:
		return fmt.Sprintf("(%s - %s)", a, b)
	case 2:
		return fmt.Sprintf("(%s * %s)", a, b)
	case 3:
		return fmt.Sprintf("(%s / ((%s & 15) + 1))", a, b)
	case 4:
		return fmt.Sprintf("(%s %% ((%s & 15) + 1))", a, b)
	case 5:
		return fmt.Sprintf("(%s ^ %s)", a, b)
	case 6:
		return fmt.Sprintf("(%s & %s)", a, b)
	case 7:
		return fmt.Sprintf("(%s | %s)", a, b)
	case 8:
		return fmt.Sprintf("(%s << (%s & 7))", a, b)
	default:
		return fmt.Sprintf("(%s >> (%s & 7))", a, b)
	}
}

func (g *progGen) cond() string {
	ops := []string{"<", "<=", ">", ">=", "==", "!="}
	return fmt.Sprintf("%s %s %s", g.expr(1), ops[g.r.Intn(len(ops))], g.expr(1))
}

func (g *progGen) stmts(depth, n int, indent string) {
	for i := 0; i < n; i++ {
		v := g.vars[g.r.Intn(len(g.vars))]
		switch g.r.Intn(10) {
		case 0, 1:
			fmt.Fprintf(&g.sb, "%s%s = %s;\n", indent, v, g.expr(2))
		case 2:
			fmt.Fprintf(&g.sb, "%sG[%s & 7] = %s;\n", indent, v, g.expr(2))
		case 3:
			if depth > 0 {
				fmt.Fprintf(&g.sb, "%sif (%s) {\n", indent, g.cond())
				g.stmts(depth-1, 1+g.r.Intn(2), indent+"    ")
				if g.r.Intn(2) == 0 {
					fmt.Fprintf(&g.sb, "%s} else {\n", indent)
					g.stmts(depth-1, 1+g.r.Intn(2), indent+"    ")
				}
				fmt.Fprintf(&g.sb, "%s}\n", indent)
			} else {
				fmt.Fprintf(&g.sb, "%s%s += %s;\n", indent, v, g.expr(1))
			}
		case 4:
			if depth > 0 {
				t := fmt.Sprintf("t%d", g.temp)
				g.temp++
				fmt.Fprintf(&g.sb, "%s{ int %s; for (%s = 0; %s < %d; %s++) {\n",
					indent, t, t, t, 2+g.r.Intn(6), t)
				g.stmts(depth-1, 1+g.r.Intn(2), indent+"    ")
				fmt.Fprintf(&g.sb, "%s} }\n", indent)
			} else {
				fmt.Fprintf(&g.sb, "%s%s ^= %s;\n", indent, v, g.expr(1))
			}
		case 5:
			fmt.Fprintf(&g.sb, "%s%s = helper(%s, %s);\n", indent, v, g.expr(1), g.expr(1))
		case 6:
			fmt.Fprintf(&g.sb, "%s%s = %s ? %s : %s;\n", indent, v, g.cond(), g.expr(1), g.expr(1))
		case 7:
			if depth > 0 {
				fmt.Fprintf(&g.sb, "%sswitch (%s & 3) {\n", indent, v)
				fmt.Fprintf(&g.sb, "%scase 0: %s += 11;\n", indent, g.vars[g.r.Intn(len(g.vars))])
				fmt.Fprintf(&g.sb, "%scase 1: %s ^= 5; break;\n", indent, g.vars[g.r.Intn(len(g.vars))])
				fmt.Fprintf(&g.sb, "%scase 2: break;\n", indent)
				fmt.Fprintf(&g.sb, "%sdefault: %s = %s;\n", indent, g.vars[g.r.Intn(len(g.vars))], g.expr(1))
				fmt.Fprintf(&g.sb, "%s}\n", indent)
			} else {
				fmt.Fprintf(&g.sb, "%s%s |= %s;\n", indent, v, g.expr(1))
			}
		case 8:
			// Pointer round trip through the global array.
			fmt.Fprintf(&g.sb, "%s{ int *p = &G[%s & 7]; *p = *p + %s; }\n", indent, v, g.expr(1))
		default:
			// Sub-word truncation behaviour.
			fmt.Fprintf(&g.sb, "%s%s = (short)(%s) + (char)(%s);\n", indent, v, g.expr(1), g.expr(1))
		}
	}
}

func generate(seed int64) string {
	g := &progGen{r: rand.New(rand.NewSource(seed))}
	nv := 3 + g.r.Intn(4)
	for i := 0; i < nv; i++ {
		g.vars = append(g.vars, fmt.Sprintf("v%d", i))
	}
	g.sb.WriteString("int G[8];\n")
	g.sb.WriteString("int helper(int a, int b) { return a * 3 - b + (a & b); }\n")
	g.sb.WriteString("int main() {\n")
	for _, v := range g.vars {
		fmt.Fprintf(&g.sb, "    int %s = %d;\n", v, g.r.Intn(100))
	}
	g.stmts(3, 6+g.r.Intn(6), "    ")
	g.sb.WriteString("    int sum = 0;\n    int gi;\n")
	g.sb.WriteString("    for (gi = 0; gi < 8; gi++) sum = sum * 31 + G[gi];\n")
	for _, v := range g.vars {
		fmt.Fprintf(&g.sb, "    sum = sum * 31 + %s;\n", v)
	}
	g.sb.WriteString("    putint(sum); putchar(10);\n    return 0;\n}\n")
	return g.sb.String()
}

func runAllEngines(t *testing.T, src string) []string {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	mod, err := irgen.Build(file)
	if err != nil {
		t.Fatalf("irgen: %v\n%s", err, src)
	}
	ir.OptimizeModule(mod)

	var outs []string

	var buf bytes.Buffer
	interp := ir.NewInterp(mod, &buf)
	interp.SetMaxSteps(50_000_000)
	if _, err := interp.Run("main"); err != nil {
		t.Fatalf("interp: %v\n%s", err, src)
	}
	outs = append(outs, buf.String())

	rv, err := riscvbe.Compile(mod)
	if err != nil {
		t.Fatalf("riscvbe: %v\n%s", err, src)
	}
	rvIm, err := rasm.Assemble(rv)
	if err != nil {
		t.Fatalf("rasm: %v", err)
	}
	rm := riscvemu.New(rvIm)
	var rbuf bytes.Buffer
	rm.SetOutput(&rbuf)
	if _, err := rm.Run(200_000_000); err != nil {
		t.Fatalf("riscv run: %v\n%s", err, src)
	}
	outs = append(outs, rbuf.String())

	for _, opts := range []straightbe.Options{
		{MaxDistance: 1023},
		{MaxDistance: 1023, RedundancyElim: true},
		{MaxDistance: 31},
		{MaxDistance: 31, RedundancyElim: true},
	} {
		_, im, err := straightbe.CompileImage(mod, opts)
		if err != nil {
			t.Fatalf("straightbe %+v: %v\n%s", opts, err, src)
		}
		// Static check at the same config the dynamic run exercises, so
		// both layers cover the identical compile matrix.
		if err := sverify.Check(im, sverify.Config{MaxDistance: opts.MaxDistance}); err != nil {
			t.Fatalf("sverify %+v: %v\n%s", opts, err, src)
		}
		m := straightemu.New(im)
		m.SetStrict(opts.MaxDistance)
		var sbuf bytes.Buffer
		m.SetOutput(&sbuf)
		if _, err := m.Run(200_000_000); err != nil {
			t.Fatalf("straight %+v run: %v\n%s", opts, err, src)
		}
		outs = append(outs, sbuf.String())
	}
	return outs
}

// fuzzSeed offsets the seed range of every randomized test here, so a
// CI failure replays exactly:
//
//	go test ./internal/difftest -run TestRandomProgramsAgree -fuzzseed N
var fuzzSeed = flag.Int64("fuzzseed", 1, "first seed for the randomized differential corpus")

// TestRandomProgramsAgree runs the differential check over a corpus of
// generated programs (deterministic seeds, so failures are reproducible).
func TestRandomProgramsAgree(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 10
	}
	base := *fuzzSeed
	t.Logf("seeds %d..%d — reproduce one with: go test ./internal/difftest -run 'TestRandomProgramsAgree/seed<N>' -fuzzseed %d",
		base, base+int64(n)-1, base)
	for seed := base; seed < base+int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			src := generate(seed)
			outs := runAllEngines(t, src)
			for i := 1; i < len(outs); i++ {
				if outs[i] != outs[0] {
					t.Fatalf("engine %d output %q differs from interpreter %q\nprogram:\n%s",
						i, outs[i], outs[0], src)
				}
			}
			if strings.TrimSpace(outs[0]) == "" {
				t.Fatal("empty output")
			}
		})
	}
}
