// Package straight is a from-scratch Go reproduction of
// "STRAIGHT: Hazardless Processor Architecture Without Register Renaming"
// (Irie et al., MICRO 2018): the distance-addressed ISA, its compiler,
// assembler and linker, cycle-accurate simulators of the STRAIGHT core
// and its equally-sized superscalar baseline, and the harness that
// regenerates every figure of the paper's evaluation.
//
// See README.md for the layout, DESIGN.md for the system inventory and
// substitutions, and EXPERIMENTS.md for paper-vs-measured results. The
// public entry point for library use is internal/core (CompileC /
// Assemble / Emulate / Simulate).
package straight
