// straight-sim runs a STRAIGHT assembly program on the cycle-accurate
// core model and reports the pipeline statistics (see internal/simcli,
// which also documents -sample).
//
// Usage:
//
//	straight-sim [-config 2way|4way] [-tage] [-validate] [-trace out.kanata] file.s
//	straight-sim -sample [-sample-interval N] [-sample-warmup N] [-sample-window N] file.s
package main

import (
	"straight/internal/simcli"
	"straight/internal/uarch"
)

func main() {
	simcli.Main(simcli.Command{
		Name:    "straight-sim",
		Core:    "straight",
		FourWay: uarch.Straight4Way,
		TwoWay:  uarch.Straight2Way,
	})
}
