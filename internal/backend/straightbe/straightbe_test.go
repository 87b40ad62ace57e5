package straightbe

import (
	"bytes"
	"strings"
	"testing"

	"straight/internal/emu/straightemu"
	"straight/internal/ir"
	"straight/internal/irgen"
	"straight/internal/minic"
	"straight/internal/sasm"
)

// compileToAsm runs the full front end + this backend.
func compileToAsm(t *testing.T, src string, opts Options) string {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := irgen.Build(file)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	ir.OptimizeModule(mod)
	asm, err := Compile(mod, opts)
	if err != nil {
		t.Fatalf("straightbe: %v", err)
	}
	return asm
}

// runStraight assembles and executes generated code, returning output.
func runStraight(t *testing.T, asm string, maxInsns uint64) (string, *straightemu.Machine) {
	t.Helper()
	im, err := sasm.Assemble(asm)
	if err != nil {
		t.Fatalf("assemble: %v\n--- asm ---\n%s", err, numberLines(asm))
	}
	m := straightemu.New(im)
	var out bytes.Buffer
	m.SetOutput(&out)
	if _, err := m.Run(maxInsns); err != nil {
		t.Fatalf("execute: %v\noutput so far: %q\n--- asm ---\n%s", err, out.String(), numberLines(asm))
	}
	return out.String(), m
}

func numberLines(s string) string {
	lines := strings.Split(s, "\n")
	var b strings.Builder
	for i, l := range lines {
		b.WriteString(strings.TrimRight(strings.Join([]string{itoa(i + 1), l}, ": "), " "))
		b.WriteByte('\n')
	}
	return b.String()
}

func itoa(i int) string {
	return strings.TrimSpace(strings.Join([]string{string(rune('0' + i/1000%10)), string(rune('0' + i/100%10)), string(rune('0' + i/10%10)), string(rune('0' + i%10))}, ""))
}

// oracle runs the IR interpreter on the same program.
func oracle(t *testing.T, src string) string {
	t.Helper()
	file, err := minic.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	mod, err := irgen.Build(file)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	ir.OptimizeModule(mod)
	var out bytes.Buffer
	in := ir.NewInterp(mod, &out)
	in.SetMaxSteps(100_000_000)
	if _, err := in.Run("main"); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	return out.String()
}

// checkAllModes compiles src in RAW and RE+ at several distance bounds
// and requires output identical to the IR oracle.
func checkAllModes(t *testing.T, src string) {
	t.Helper()
	want := oracle(t, src)
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"RAW_1023", Options{MaxDistance: 1023}},
		{"REplus_1023", Options{MaxDistance: 1023, RedundancyElim: true}},
		{"RAW_31", Options{MaxDistance: 31}},
		{"REplus_31", Options{MaxDistance: 31, RedundancyElim: true}},
		{"REplus_63", Options{MaxDistance: 63, RedundancyElim: true}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			asm := compileToAsm(t, src, cfg.opts)
			got, _ := runStraight(t, asm, 50_000_000)
			if got != want {
				t.Errorf("output %q, want %q", got, want)
			}
		})
	}
}

func TestSimpleReturn(t *testing.T) {
	checkAllModes(t, `
int main() {
    putint(42);
    return 0;
}`)
}

func TestArithmetic(t *testing.T) {
	checkAllModes(t, `
int main() {
    int a = 1000;
    int b = 37;
    putint(a + b); putchar(' ');
    putint(a - b); putchar(' ');
    putint(a * b); putchar(' ');
    putint(a / b); putchar(' ');
    putint(a % b); putchar(' ');
    putint(-a >> 3); putchar(' ');
    putint(a << 2); putchar(' ');
    putint((a ^ b) & 0xFF); putchar(' ');
    putint(a | b);
    return 0;
}`)
}

func TestBigConstants(t *testing.T) {
	checkAllModes(t, `
int main() {
    putint(123456789); putchar(' ');
    putint(-123456789); putchar(' ');
    puthex(0xDEADBEEF); putchar(' ');
    putuint(4000000000u);
    return 0;
}`)
}

func TestBranchesAndComparisons(t *testing.T) {
	checkAllModes(t, `
void show(int v) { putint(v); putchar(' '); }
int main() {
    int a = 5, b = -7;
    show(a < b); show(a > b); show(a <= 5); show(a >= 6);
    show(a == 5); show(a != 5);
    unsigned ua = 5u;
    unsigned ub = 0xFFFFFFF9u; // -7 as unsigned
    show(ua < ub); show(ua > ub);
    if (a > 0 && b < 0) show(1); else show(0);
    if (a < 0 || b < 0) show(2); else show(0);
    putchar('.');
    return 0;
}`)
}

func TestLoopFib(t *testing.T) {
	checkAllModes(t, `
int main() {
    int a = 0, b = 1, i;
    for (i = 0; i < 20; i++) {
        int t = a + b;
        a = b;
        b = t;
    }
    putint(b);
    return 0;
}`)
}

func TestFunctionCallsAndRecursion(t *testing.T) {
	checkAllModes(t, `
int fib(int n) {
    if (n < 2) return n;
    return fib(n - 1) + fib(n - 2);
}
int ack(int m, int n) {
    if (m == 0) return n + 1;
    if (n == 0) return ack(m - 1, 1);
    return ack(m - 1, ack(m, n - 1));
}
int main() {
    putint(fib(12)); putchar(' ');
    putint(ack(2, 3));
    return 0;
}`)
}

func TestCallWithManyLiveValues(t *testing.T) {
	// Values live across calls must relay through the stack frame.
	checkAllModes(t, `
int id(int x) { return x; }
int main() {
    int a = 11, b = 22, c = 33, d = 44, e = 55, f = 66;
    int g = id(100);
    putint(a + b + c + d + e + f + g); putchar(' ');
    int h = id(a) + id(b) + id(c);
    putint(h);
    return 0;
}`)
}

func TestGlobalsAndMemory(t *testing.T) {
	checkAllModes(t, `
int grid[4][4];
int total;
char name[10] = "straight";
int main() {
    int i, j;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            grid[i][j] = i * 4 + j;
    total = 0;
    for (i = 0; i < 4; i++)
        for (j = 0; j < 4; j++)
            total += grid[i][j];
    putint(total); putchar(' ');     // 120
    putchar(name[2]); putchar(' ');  // r
    short hs[3];
    hs[0] = -300; hs[1] = 300; hs[2] = 9;
    putint(hs[0] + hs[1] + hs[2]);   // 9
    return 0;
}`)
}

func TestStructsOnStraight(t *testing.T) {
	checkAllModes(t, `
struct Node { struct Node *next; int val; };
struct Node nodes[5];
int main() {
    int i;
    for (i = 0; i < 5; i++) {
        nodes[i].val = i * 3;
        if (i + 1 < 5) nodes[i].next = &nodes[i + 1];
        else nodes[i].next = 0;
    }
    struct Node *p = &nodes[0];
    int sum = 0;
    while (p) {
        sum += p->val;
        p = p->next;
    }
    putint(sum);  // 0+3+6+9+12 = 30
    return 0;
}`)
}

func TestSwitchOnStraight(t *testing.T) {
	checkAllModes(t, `
int main() {
    int i;
    for (i = 0; i < 6; i++) {
        switch (i) {
        case 0: putchar('a'); break;
        case 1:
        case 2: putchar('b'); break;
        case 3: putchar('c');
        case 4: putchar('d'); break;
        default: putchar('z');
        }
    }
    return 0;
}`)
}

func TestFunctionPointersOnStraight(t *testing.T) {
	checkAllModes(t, `
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int fold(int (*f)(int, int), int *xs, int n, int init) {
    int acc = init;
    int i;
    for (i = 0; i < n; i++) acc = f(acc, xs[i]);
    return acc;
}
int data[4] = {1, 2, 3, 4};
int main() {
    putint(fold(add, data, 4, 0)); putchar(' ');
    putint(fold(mul, data, 4, 1));
    return 0;
}`)
}

func TestManyLiveValuesAcrossLoop(t *testing.T) {
	// Stresses frames: many values live across a loop (the RE+ stack
	// relay case, Fig 10(c)).
	checkAllModes(t, `
int main() {
    int a = 1, b = 2, c = 3, d = 4, e = 5, f = 6, g = 7, h = 8;
    int i, sum = 0;
    for (i = 0; i < 50; i++) {
        sum += i;
    }
    putint(sum + a + b + c + d + e + f + g + h);
    return 0;
}`)
}

func TestDeepExpressionDistances(t *testing.T) {
	// Long dependence chains stress distance bounding at MaxDistance 31.
	checkAllModes(t, `
int main() {
    int x0 = 1;
    int x1 = x0 + 1; int x2 = x1 + x0; int x3 = x2 + x1;
    int x4 = x3 + x2; int x5 = x4 + x3; int x6 = x5 + x4;
    int x7 = x6 + x5; int x8 = x7 + x6; int x9 = x8 + x7;
    int y = x0 + x1 + x2 + x3 + x4 + x5 + x6 + x7 + x8 + x9;
    putint(y); putchar(' ');
    putint(x0 + x9);
    return 0;
}`)
}

func TestCharStringProcessing(t *testing.T) {
	checkAllModes(t, `
char buf[64];
int mystrcpy(char *dst, char *src) {
    int n = 0;
    while ((dst[n] = src[n]) != 0) n++;
    return n;
}
int mystrcmp(char *a, char *b) {
    while (*a && *a == *b) { a++; b++; }
    return *a - *b;
}
int main() {
    int n = mystrcpy(buf, "DHRYSTONE PROGRAM");
    putint(n); putchar(' ');
    putint(mystrcmp(buf, "DHRYSTONE PROGRAM")); putchar(' ');
    putint(mystrcmp(buf, "DHRYSTONE PROGRAN") < 0); putchar(' ');
    putchar(buf[10]);
    return 0;
}`)
}

func TestRMOVCountsRAWvsREplus(t *testing.T) {
	// RE+ must retire fewer RMOVs than RAW on merge-heavy loop code
	// (paper Fig 15 direction).
	src := `
int main() {
    int a = 3, b = 5, c = 7, n = 200, i;
    int sum = 0;
    for (i = 0; i < n; i++) {
        if (i & 1) sum += a; else sum += b;
        sum ^= c;
    }
    putint(sum);
    return 0;
}`
	want := oracle(t, src)
	asmRaw := compileToAsm(t, src, Options{MaxDistance: 1023})
	outRaw, mRaw := runStraight(t, asmRaw, 10_000_000)
	asmRE := compileToAsm(t, src, Options{MaxDistance: 1023, RedundancyElim: true})
	outRE, mRE := runStraight(t, asmRE, 10_000_000)
	if outRaw != want || outRE != want {
		t.Fatalf("outputs: raw %q re+ %q want %q", outRaw, outRE, want)
	}
	rawTotal := mRaw.Stats().Total()
	reTotal := mRE.Stats().Total()
	if reTotal >= rawTotal {
		t.Errorf("RE+ retired %d insns, RAW %d — RE+ should be smaller", reTotal, rawTotal)
	}
	t.Logf("retired: RAW=%d RE+=%d", rawTotal, reTotal)
}

func TestDistanceBoundRespected(t *testing.T) {
	// Every distance in the emitted binary must respect the bound.
	src := `
int work(int seed) {
    int a = seed, b = seed + 1, c = seed + 2, d = seed + 3;
    int i, acc = 0;
    for (i = 0; i < 10; i++) {
        acc += a * b - c / (d + 1);
        a ^= i; b += a; c -= b; d ^= c;
    }
    return acc;
}
int main() { putint(work(9)); return 0; }`
	for _, bound := range []int{31, 63, 127} {
		asm := compileToAsm(t, src, Options{MaxDistance: bound, RedundancyElim: true})
		im, err := sasm.Assemble(asm)
		if err != nil {
			t.Fatalf("assemble: %v", err)
		}
		m := straightemu.New(im)
		if _, err := m.Run(10_000_000); err != nil {
			t.Fatalf("bound %d: %v", bound, err)
		}
		if got := int(m.Stats().MaxObservedDistance); got > bound {
			t.Errorf("bound %d: observed distance %d", bound, got)
		}
	}
}

// TestVerifyOutputRejectsViolation drives the post-compile assertion's
// failure paths. Every cached bench image is verified only here, so a
// backend that emitted an over-bound read must fail with this text.
func TestVerifyOutputRejectsViolation(t *testing.T) {
	// ADD reads the ADDi 36 instructions back: over the bound 31,
	// within the ISA maximum.
	asm := "main:\n    ADDi [0], 7\n" + strings.Repeat("    ADDi [0], 1\n", 35) +
		"    ADD [36], [1]\n    SYS exit, [1]\n"
	im, err := verifyOutput(asm, Options{MaxDistance: 31})
	const want = "straightbe: generated code fails verification: sverify: 1 violation(s)\n" +
		"0x00001090: over-bound-distance: ADD src1 distance 36 exceeds bound 31\n"
	if err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("d=31: err = %v, want prefix %q", err, want)
	}
	if im != nil {
		t.Error("a failing assertion handed over an image")
	}
	if im, err := verifyOutput(asm, Options{}); err != nil || im == nil {
		t.Errorf("d=0 (ISA maximum): image %v, err %v; want the image", im != nil, err)
	}
	const bad = "straightbe: generated assembly does not assemble: sasm: line 1: "
	if _, err := verifyOutput("    BOGUS [1]\n", Options{}); err == nil || !strings.HasPrefix(err.Error(), bad) {
		t.Errorf("unassemblable text: err = %v, want prefix %q", err, bad)
	}
}
