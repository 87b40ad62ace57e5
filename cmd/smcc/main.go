// smcc is the MiniC compiler driver: it compiles a MiniC source file to
// STRAIGHT or RV32IM assembly (the toolchain's clang stand-in).
//
// Usage:
//
//	smcc [-target straight|riscv] [-O2] [-re] [-maxdist N] [-run] file.c
//
// With -run the program is compiled, assembled and executed on the
// functional emulator, printing its console output.
package main

import (
	"flag"
	"fmt"
	"os"

	"straight/internal/core"
)

func main() {
	target := flag.String("target", "straight", "target ISA: straight or riscv")
	re := flag.Bool("re", false, "enable STRAIGHT RE+ redundancy elimination")
	maxDist := flag.Int("maxdist", 0, "STRAIGHT maximum operand distance (0 = ISA max 1023)")
	run := flag.Bool("run", false, "execute on the functional emulator after compiling")
	out := flag.String("o", "", "write assembly to file (default stdout)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: smcc [flags] file.c")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}

	tgt := core.TargetStraight
	if *target == "riscv" {
		tgt = core.TargetRISCV
	}
	prog, err := core.CompileC(string(src), tgt, core.CompileOptions{
		MaxDistance:    *maxDist,
		RedundancyElim: *re,
	})
	if err != nil {
		fatal(err)
	}

	if *out != "" {
		if err := os.WriteFile(*out, []byte(prog.Assembly), 0o644); err != nil {
			fatal(err)
		}
	} else if !*run {
		fmt.Print(prog.Assembly)
	}

	if *run {
		res, err := core.Emulate(prog, os.Stdout)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "[%d instructions, exit %d]\n", res.Insns, res.ExitCode)
		os.Exit(int(res.ExitCode))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smcc:", err)
	os.Exit(1)
}
