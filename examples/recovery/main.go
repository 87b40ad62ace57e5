// Recovery example: the paper's central mechanism claim, observable.
// A branch-heavy kernel runs on the equally-sized SS and STRAIGHT models;
// the SS core walks the ROB on every misprediction while STRAIGHT
// restores from a single ROB entry read — compare the recovery stalls and
// the resulting cycle counts (paper §III-B, Fig 13).
package main

import (
	"fmt"
	"log"

	"straight/internal/core"
	"straight/internal/uarch"
)

const src = `
int main() {
    unsigned x = 12345;
    int i, a = 0, b = 0;
    for (i = 0; i < 30000; i++) {
        x = x * 1103515245u + 12345u;     /* hard-to-predict bits */
        if ((x >> 16) & 1) a += i; else b -= i;
        if ((x >> 17) & 3) a ^= b;
    }
    putint(a); putchar(32); putint(b); putchar(10);
    return 0;
}
`

func main() {
	ssProg, err := core.CompileC(src, core.TargetRISCV, core.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}
	stProg, err := core.CompileC(src, core.TargetStraight,
		core.CompileOptions{MaxDistance: 31, RedundancyElim: true})
	if err != nil {
		log.Fatal(err)
	}

	ss, err := core.Simulate(ssProg, uarch.SS4Way())
	if err != nil {
		log.Fatal(err)
	}
	st, err := core.Simulate(stProg, uarch.Straight4Way())
	if err != nil {
		log.Fatal(err)
	}
	if ss.Output != st.Output {
		log.Fatalf("outputs differ: %q vs %q", ss.Output, st.Output)
	}

	fmt.Printf("both cores print: %q\n\n", ss.Output)
	fmt.Printf("%-28s %14s %16s\n", "", "SS-4way", "STRAIGHT-4way")
	row := func(name string, a, b any) { fmt.Printf("%-28s %14v %16v\n", name, a, b) }
	row("cycles", ss.Stats.Cycles, st.Stats.Cycles)
	row("retired instructions", ss.Stats.Retired, st.Stats.Retired)
	row("IPC", fmt.Sprintf("%.3f", ss.Stats.IPC()), fmt.Sprintf("%.3f", st.Stats.IPC()))
	row("branch mispredictions", ss.Stats.Mispredicts, st.Stats.Mispredicts)
	row("ROB walk steps", ss.Stats.ROBWalkSteps, st.Stats.ROBWalkSteps)
	row("recovery stall cycles", ss.Stats.RecoveryStall, st.Stats.RecoveryStall)
	row("RMT reads", ss.Stats.RenameReads, st.Stats.RenameReads)
	row("RMT writes", ss.Stats.RenameWrites, st.Stats.RenameWrites)
	row("free-list operations", ss.Stats.FreeListOps, st.Stats.FreeListOps)
	row("RP additions", ss.Stats.RPAdditions, st.Stats.RPAdditions)

	fmt.Printf("\nSTRAIGHT executes %.1f%% more instructions (RMOV padding) yet recovers\n",
		100*(float64(st.Stats.Retired)/float64(ss.Stats.Retired)-1))
	fmt.Printf("from each misprediction without walking the ROB: %d total walk steps vs %d.\n",
		st.Stats.ROBWalkSteps, ss.Stats.ROBWalkSteps)
}
