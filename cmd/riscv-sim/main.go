// riscv-sim runs an RV32IM assembly program on the cycle-accurate
// superscalar ("SS") core model and reports the pipeline statistics
// (see internal/simcli, which also documents -sample).
//
// Usage:
//
//	riscv-sim [-config 2way|4way] [-tage] [-nopenalty] [-validate] [-trace out.kanata] file.s
//	riscv-sim -sample [-sample-interval N] [-sample-warmup N] [-sample-window N] file.s
package main

import (
	"straight/internal/simcli"
	"straight/internal/uarch"
)

func main() {
	simcli.Main(simcli.Command{
		Name:      "riscv-sim",
		Core:      "ss",
		FourWay:   uarch.SS4Way,
		TwoWay:    uarch.SS2Way,
		NoPenalty: true,
	})
}
