// Quickstart: assemble the paper's Fibonacci idiom (Fig 1) by hand, run
// it on the architectural emulator, then simulate it cycle-accurately on
// the 4-way STRAIGHT model and print the pipeline statistics.
package main

import (
	"fmt"
	"log"
	"os"

	"straight/internal/core"
	"straight/internal/uarch"
)

// The paper's signature example: each "ADD [1], [2]" consumes the results
// of the previous two instructions, so repeating it computes a Fibonacci
// series — with every register written exactly once.
const fib = `
main:
    ADDi [0], 0          # F(0)
    ADDi [0], 1          # F(1)
    ADD  [1], [2]        # F(2) = F(1) + F(0)
    ADD  [1], [2]
    ADD  [1], [2]
    ADD  [1], [2]
    ADD  [1], [2]
    ADD  [1], [2]
    ADD  [1], [2]
    ADD  [1], [2]        # F(10)
    SYS  puti, [1]
    ADDi [0], 10
    SYS  putc, [1]       # newline
    ADDi [0], 0
    SYS  exit, [1]
`

func main() {
	prog, err := core.Assemble(fib, core.TargetStraight)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Disassembly:")
	fmt.Print(core.Disassemble(prog))

	fmt.Println("\nArchitectural emulation:")
	res, err := core.Emulate(prog, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("retired %d instructions, exit code %d\n", res.Insns, res.ExitCode)

	fmt.Println("\nCycle-accurate simulation (STRAIGHT-4way, Table I):")
	sim, err := core.Simulate(prog, uarch.Straight4Way(), core.SimOptions{CrossValidate: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("output: %q\n", sim.Output)
	fmt.Print(sim.Stats.String())
}
