// Compiler example: compile one MiniC program for both ISAs, show the
// STRAIGHT distance-addressed assembly next to the RISC-V assembly, and
// demonstrate the RE+ redundancy elimination (paper §IV-D) by comparing
// dynamic instruction counts of RAW and RE+ code — including the RMOV
// padding the distance-fixing algorithm inserts.
package main

import (
	"fmt"
	"log"
	"strings"

	"straight/internal/core"
	"straight/internal/isa/straight"
)

// The paper's running example (Fig 10): iota, whose loop-carried values
// force the compiler to fix distances across the back edge.
const src = `
void iota(int *arr, int n) {
    int i;
    for (i = 0; i < n; i++) {
        arr[i] = i;
    }
}

int arr[64];

int main() {
    iota(arr, 64);
    int sum = 0;
    int i;
    for (i = 0; i < 64; i++) sum += arr[i];
    putint(sum);
    putchar(10);
    return 0;
}
`

func main() {
	raw, err := core.CompileC(src, core.TargetStraight, core.CompileOptions{MaxDistance: 31})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := core.CompileC(src, core.TargetStraight, core.CompileOptions{MaxDistance: 31, RedundancyElim: true})
	if err != nil {
		log.Fatal(err)
	}
	rv, err := core.CompileC(src, core.TargetRISCV, core.CompileOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("STRAIGHT RE+ assembly for iota (distance operands in [brackets]):")
	printFunc(rep.Assembly, "iota")
	fmt.Println("\nRISC-V assembly for iota:")
	printFunc(rv.Assembly, "iota")

	rawRes, err := core.Emulate(raw, nil)
	if err != nil {
		log.Fatal(err)
	}
	repRes, err := core.Emulate(rep, nil)
	if err != nil {
		log.Fatal(err)
	}
	rvRes, err := core.Emulate(rv, nil)
	if err != nil {
		log.Fatal(err)
	}
	if rawRes.Output != repRes.Output || rawRes.Output != rvRes.Output {
		log.Fatalf("outputs differ: %q %q %q", rawRes.Output, repRes.Output, rvRes.Output)
	}
	fmt.Printf("\nAll three binaries print: %q\n\n", strings.TrimSpace(rvRes.Output))

	fmt.Printf("%-22s %12s %12s %12s\n", "", "RISC-V", "STR RAW", "STR RE+")
	fmt.Printf("%-22s %12d %12d %12d\n", "dynamic instructions",
		rvRes.Insns, rawRes.Insns, repRes.Insns)
	fmt.Printf("%-22s %12s %12d %12d\n", "RMOV instructions", "-",
		rawRes.StraightStats.Retired[straight.RMOV],
		repRes.StraightStats.Retired[straight.RMOV])
	fmt.Printf("\nRE+ removed %.1f%% of the dynamic instructions RAW needed.\n",
		100*(1-float64(repRes.Insns)/float64(rawRes.Insns)))
}

func printFunc(asm, name string) {
	on := false
	for _, line := range strings.Split(asm, "\n") {
		if strings.HasPrefix(line, name+":") {
			on = true
		} else if on && strings.HasSuffix(line, ":") && !strings.HasPrefix(line, ".") &&
			!strings.HasPrefix(line, " ") {
			break
		}
		if on {
			fmt.Println(line)
		}
	}
}
