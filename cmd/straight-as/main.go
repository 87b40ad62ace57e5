// straight-as assembles STRAIGHT assembly and prints a disassembly
// listing of the linked image (addresses, encodings, symbols).
//
// Usage:
//
//	straight-as [-vet] [-d maxdist] file.s
//
// With -vet the linked image is additionally checked by the static
// invariant verifier (see cmd/straight-vet); assembly fails if any
// STRAIGHT invariant is violated.
package main

import (
	"flag"
	"fmt"
	"os"

	"straight/internal/sasm"
	"straight/internal/sverify"
)

func main() {
	vet := flag.Bool("vet", false, "verify the STRAIGHT invariants on the linked image")
	maxDist := flag.Int("d", 0, "operand-distance bound for -vet (0 = ISA maximum)")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: straight-as [-vet] [-d maxdist] file.s")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "straight-as:", err)
		os.Exit(1)
	}
	im, err := sasm.Assemble(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "straight-as:", err)
		os.Exit(1)
	}
	if *vet {
		if err := sverify.Check(im, sverify.Config{MaxDistance: *maxDist}); err != nil {
			// Line 0: the linked image failed, not a source line.
			fmt.Fprintf(os.Stderr, "straight-as: sasm: line 0: %v\n", err)
			os.Exit(1)
		}
	}
	fmt.Printf("entry: %#08x   text: %d instructions   data: %d bytes\n\n",
		im.Entry, len(im.Text), len(im.Data))
	fmt.Print(sasm.Disassemble(im))
}
