package workloads

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Workload names the benchmark programs used by the experiments.
type Workload string

const (
	// Dhrystone is the Dhrystone 2.1 equivalent.
	Dhrystone Workload = "dhrystone"
	// CoreMark is the CoreMark equivalent.
	CoreMark Workload = "coremark"
	// Microkernel workloads for unit benches and ablations.
	MicroFib     Workload = "micro-fib"
	MicroSieve   Workload = "micro-sieve"
	MicroPointer Workload = "micro-pointer"
	MicroBranch  Workload = "micro-branch"
	MicroStream  Workload = "micro-stream"
	// DhrystoneLong is Dhrystone with its iteration count scaled by
	// LongScale: the long-running tier (tens of millions of retired
	// instructions at the standard iteration counts) that only the
	// sampled simulator can sweep in reasonable time (DESIGN.md §16).
	DhrystoneLong Workload = "dhrystone-long"
)

// LongScale is the iteration multiplier of the long-running workload
// tier: DhrystoneLong at iterations n runs DhrystoneSource(n*LongScale).
// At the bench-standard 300 iterations this retires ~11.6M instructions
// on STRAIGHT — inside the 10–50M band the sampling experiments target.
const LongScale = 20

// All lists the two paper workloads (the ones the figures use).
var All = []Workload{Dhrystone, CoreMark}

// Micro lists the additional microkernels.
var Micro = []Workload{MicroFib, MicroSieve, MicroPointer, MicroBranch, MicroStream}

// Source returns the MiniC source of a workload with the given iteration
// count.
func Source(w Workload, iterations int) (string, error) {
	t, n, err := lookup(w, iterations)
	if err != nil {
		return "", err
	}
	return t.render(n), nil
}

// SourceParts returns Source(w, iterations) without building it: the
// source is prefix + strconv.Itoa(count) + suffix. Content addresses
// hash these parts in place (resultstore.KeyHasher.Strings).
func SourceParts(w Workload, iterations int) (prefix string, count int, suffix string, err error) {
	t, n, err := lookup(w, iterations)
	return t.prefix, n, t.suffix, err
}

// lookup returns w's template and the count rendered into it.
func lookup(w Workload, iterations int) (template, int, error) {
	switch w {
	case Dhrystone:
		return dhrystoneSource, iterations, nil
	case DhrystoneLong:
		return dhrystoneSource, iterations * LongScale, nil
	case CoreMark:
		return coremarkSource, iterations, nil
	}
	if t, ok := micro[w]; ok {
		return t, iterations, nil
	}
	return template{}, 0, fmt.Errorf("workloads: unknown workload %q", w)
}

// template is a workload source format with one %d verb (the iteration
// count), rendered once around it: a source is then one concatenation
// instead of a fmt.Sprintf over the whole text, rendered for every
// compile, and content addresses hash the parts without rendering.
type template struct{ prefix, suffix string }

// split renders format with a sentinel count and cuts the text around
// it, so the %% escapes resolve exactly as fmt.Sprintf resolves them.
func split(format string) template {
	mark := strconv.Itoa(math.MinInt)
	prefix, suffix, ok := strings.Cut(fmt.Sprintf(format, math.MinInt), mark)
	if !ok || strings.Contains(suffix, mark) {
		panic("workloads: template needs exactly one count verb")
	}
	return template{prefix, suffix}
}

func (t template) render(iterations int) string {
	return t.prefix + strconv.Itoa(iterations) + t.suffix
}

var micro = map[Workload]template{
	MicroFib:     split(microFib),
	MicroSieve:   split(microSieve),
	MicroPointer: split(microPointer),
	MicroBranch:  split(microBranch),
	MicroStream:  split(microStream),
}

// microFib: call-heavy recursive workload.
const microFib = `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int main() {
    int i, acc = 0;
    int iters = %d;
    for (i = 0; i < iters; i++) acc += fib(12 + (i & 3));
    putint(acc); putchar(10);
    return 0;
}
`

// microSieve: loop/memory workload with predictable branches.
const microSieve = `
char flags[2048];
int main() {
    int iters = %d;
    int i, k, count = 0, run;
    for (run = 0; run < iters; run++) {
        count = 0;
        for (i = 0; i < 2048; i++) flags[i] = 1;
        for (i = 2; i < 2048; i++) {
            if (flags[i]) {
                for (k = i + i; k < 2048; k += i) flags[k] = 0;
                count++;
            }
        }
    }
    putint(count); putchar(10);
    return 0;
}
`

// microPointer: dependent-load (pointer chasing) workload.
const microPointer = `
int ring[512];
int main() {
    int iters = %d;
    int i, p, acc = 0;
    for (i = 0; i < 512; i++) ring[i] = (i * 167 + 13) & 511;
    p = 0;
    for (i = 0; i < iters * 1000; i++) {
        p = ring[p];
        acc += p;
    }
    putint(acc); putchar(10);
    return 0;
}
`

// microStream: sequential sweeps over a 4 MiB array — larger than the
// whole cache hierarchy (L3 is 2 MiB) — so main-memory latency, the MSHR
// limit and the stream prefetcher are actually exercised (every other
// workload is cache-resident).
const microStream = `
int big[1048576];
int main() {
    int iters = %d;
    int i, r;
    int acc = 0;
    for (i = 0; i < 1048576; i++) big[i] = i ^ 0x55;
    for (r = 0; r < iters; r++) {
        for (i = 0; i < 1048576; i++) acc += big[i];
    }
    putint(acc); putchar(10);
    return 0;
}
`

// microBranch: data-dependent hard-to-predict branches, stressing the
// misprediction-recovery paths the paper's Fig 13 isolates.
const microBranch = `
int main() {
    int iters = %d;
    unsigned x = 12345;
    int i, a = 0, b = 0;
    for (i = 0; i < iters * 1000; i++) {
        x = x * 1103515245u + 12345u;
        if ((x >> 16) & 1) a += i;
        else b -= i;
        if ((x >> 17) & 3) a ^= b;
    }
    putint(a); putchar(' '); putint(b); putchar(10);
    return 0;
}
`
