package core

import (
	"bytes"
	"strings"
	"testing"

	"straight/internal/uarch"
)

const testSrc = `
int collatzLen(unsigned n) {
    int steps = 0;
    while (n != 1u) {
        if (n & 1u) n = 3u * n + 1u;
        else n = n / 2u;
        steps++;
    }
    return steps;
}
int main() {
    putint(collatzLen(27u));
    putchar(10);
    return 0;
}
`

func TestCompileEmulateBothTargets(t *testing.T) {
	tc := NewToolchain()
	var outputs []string
	for _, target := range []Target{TargetStraight, TargetRISCV} {
		prog, err := tc.CompileC(testSrc, target, CompileOptions{RedundancyElim: true, MaxDistance: 31})
		if err != nil {
			t.Fatalf("target %s: %v", target, err)
		}
		if prog.Assembly == "" {
			t.Fatal("missing assembly")
		}
		res, err := Emulate(prog, nil)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, res.Output)
		if res.ExitCode != 0 {
			t.Errorf("exit code %d", res.ExitCode)
		}
	}
	if outputs[0] != outputs[1] || outputs[0] != "111\n" {
		t.Errorf("outputs: %q %q (want 111)", outputs[0], outputs[1])
	}
}

func TestSimulateMatchesEmulation(t *testing.T) {
	tc := NewToolchain()
	prog, err := tc.CompileC(testSrc, TargetStraight, CompileOptions{MaxDistance: 31, RedundancyElim: true})
	if err != nil {
		t.Fatal(err)
	}
	emu, err := Emulate(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := Simulate(prog, uarch.Straight2Way(), SimOptions{CrossValidate: true})
	if err != nil {
		t.Fatal(err)
	}
	if sim.Output != emu.Output {
		t.Errorf("sim %q vs emu %q", sim.Output, emu.Output)
	}
	if sim.Stats.Retired == 0 || sim.Stats.Cycles == 0 {
		t.Error("missing stats")
	}
}

func TestAssembleAndDisassemble(t *testing.T) {
	tc := NewToolchain()
	prog, err := tc.Assemble("main:\n ADDi [0], 7\n SYS exit, [1]\n", TargetStraight)
	if err != nil {
		t.Fatal(err)
	}
	if dis := Disassemble(prog); !strings.Contains(dis, "ADDi [0], 7") {
		t.Errorf("disassembly: %s", dis)
	}
	rv, err := tc.Assemble("main:\n li a7, 0\n li a0, 3\n ecall\n", TargetRISCV)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Emulate(rv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ExitCode != 3 {
		t.Errorf("exit code %d, want 3", res.ExitCode)
	}
}

func TestEmitAssemblyWriter(t *testing.T) {
	tc := NewToolchain()
	var buf bytes.Buffer
	_, err := tc.CompileC(testSrc, TargetStraight, CompileOptions{EmitAssembly: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "collatzLen:") {
		t.Error("EmitAssembly did not receive the assembly")
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	tc := NewToolchain()
	if _, err := tc.CompileC("int main( {", TargetStraight, CompileOptions{}); err == nil {
		t.Error("parse error not surfaced")
	}
	if _, err := tc.CompileC("int main() { return missing(); }", TargetRISCV, CompileOptions{}); err == nil {
		t.Error("semantic error not surfaced")
	}
	if _, err := tc.Assemble("BOGUS [1]", TargetStraight); err == nil {
		t.Error("assembly error not surfaced")
	}
}
