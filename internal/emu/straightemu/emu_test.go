package straightemu

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"straight/internal/emu"
	"straight/internal/isa/straight"
	"straight/internal/sasm"
)

func run(t *testing.T, src string, max uint64) (*Machine, string) {
	t.Helper()
	im, err := sasm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(im)
	var out bytes.Buffer
	m.SetOutput(&out)
	if _, err := m.Run(max); err != nil {
		t.Fatalf("run: %v\noutput so far: %q", err, out.String())
	}
	return m, out.String()
}

// TestFibonacciStraightLine reproduces the paper's Fig 1 example: repeated
// "ADD [1] [2]" computes a Fibonacci series.
func TestFibonacciStraightLine(t *testing.T) {
	src := `
main:
    ADDi [0], 0
    ADDi [0], 1
    ADD [1], [2]
    ADD [1], [2]
    ADD [1], [2]
    ADD [1], [2]
    ADD [1], [2]
    SYS puti, [1]
    ADDi [0], 0
    SYS exit, [1]
`
	_, out := run(t, src, 100)
	if out != "8" { // 0 1 1 2 3 5 8
		t.Errorf("fib output %q, want 8", out)
	}
}

// TestFibonacciLoop exercises a loop with a distance-fixed register frame,
// including the NOP that equalizes the fall-through entry path against the
// back-edge J (paper §IV-C2).
func TestFibonacciLoop(t *testing.T) {
	src := `
main:
    ADDi [0], 0      # a = 0
    ADDi [0], 1      # b = 1
    ADDi [0], 10     # n = 10
    NOP              # distance fixing vs back-edge J
loop:                # frame: [2]=n, [3]=b, [4]=a
    BEZ [2], done
    ADD [4], [5]     # t = b + a
    ADDi [4], -1     # n-1
    RMOV [6]         # a' = old b
    RMOV [3]         # b' = t
    RMOV [3]         # n' = n-1
    J loop
done:                # [1]=BEZ, [2]=NOP/J, [3]=n, [4]=b, [5]=a
    SYS puti, [4]
    ADDi [0], 0
    SYS exit, [1]
`
	m, out := run(t, src, 1000)
	if out != "89" { // fib(11) with fib(1)=fib(2)=1
		t.Errorf("loop fib output %q, want 89", out)
	}
	if m.Stats().Retired[straight.RMOV] != 30 {
		t.Errorf("RMOV count %d, want 30 (3 per 10 iterations)", m.Stats().Retired[straight.RMOV])
	}
	if ex, code := m.Exited(); !ex || code != 0 {
		t.Errorf("exit state: %v %d", ex, code)
	}
}

// TestCallingConvention checks the paper's Fig 5/6 scheme: producers of
// arguments sit immediately before JAL; the callee addresses them by fixed
// distance; JR returns via the JAL link value; the caller picks up the
// return value at a fixed distance after JR.
func TestCallingConvention(t *testing.T) {
	src := `
main:
    ADDi [0], 30     # arg1
    ADDi [0], 12     # arg0
    JAL add2         # callee: [1]=JAL, [2]=arg0, [3]=arg1
    ADDi [2], 0      # after return: [1]=JR, [2]=retval0
    SYS puti, [1]
    ADDi [0], 0
    SYS exit, [1]
add2:
    ADD [2], [3]     # arg0 + arg1  (retval0)
    JR [2]           # return via JAL link at distance 2
`
	_, out := run(t, src, 100)
	if out != "42" {
		t.Errorf("call output %q, want 42", out)
	}
}

// TestSPADDAndStackFrame exercises SPADD-relative frame access (paper Fig
// 10(c) pattern): a value is stored across a region and reloaded.
func TestSPADDAndStackFrame(t *testing.T) {
	src := `
main:
    SPADD -8         # open frame; result = new SP
    ADDi [0], 1234
    ST [2], [1]      # mem[SP+0] = 1234
    ADDi [0], 0      # clobber window with unrelated work
    ADDi [0], 0
    LD [5], 0        # reload via the SPADD result at distance 5
    SYS puti, [1]
    SPADD 8          # close frame
    ADDi [0], 0
    SYS exit, [1]
`
	m, out := run(t, src, 100)
	if out != "1234" {
		t.Errorf("stack output %q, want 1234", out)
	}
	if m.SP() != 0x7FFFF000 {
		t.Errorf("SP not restored: %#x", m.SP())
	}
}

func TestStoreReturnsValueAndSubWordAccess(t *testing.T) {
	src := `
main:
    LUI hi(buf)
    ORi [1], lo(buf)
    ADDi [0], -2     # 0xFFFFFFFE
    SB [2], [1], 0   # store low byte 0xFE; store result = value
    SYS putx, [1]    # print the store's own result
    LBU [5], 0       # reload zero-extended byte  (buf addr at distance 5... see below)
    SYS putx, [1]
    LB [7], 0        # reload sign-extended
    SYS puti, [1]
    ADDi [0], 0
    SYS exit, [1]
    .data
buf:
    .word 0
`
	// Distances: at LBU, producers are: [1]=putx, [2]=SB, [3]=ADDi(-2),
	// [4]=ORi (address), [5]=LUI. The ORi result is the full address at
	// distance 4 from LBU; adjust the source to use [4].
	src = replaceOnce(src, "LBU [5], 0", "LBU [4], 0")
	// At LB, ORi is at distance 6.
	src = replaceOnce(src, "LB [7], 0", "LB [6], 0")
	_, out := run(t, src, 100)
	if out != "fffffffefe-2" {
		t.Errorf("subword output %q, want fffffffefe-2", out)
	}
}

func replaceOnce(s, old, new string) string {
	return string(bytes.Replace([]byte(s), []byte(old), []byte(new), 1))
}

func TestDistanceStats(t *testing.T) {
	m, _ := run(t, `
main:
    ADDi [0], 1
    ADDi [0], 2
    ADD [1], [2]
    SYS exit, [0]
`, 10)
	st := m.Stats()
	if st.DistanceHist[1] != 1 || st.DistanceHist[2] != 1 {
		t.Errorf("distance hist: d1=%d d2=%d", st.DistanceHist[1], st.DistanceHist[2])
	}
	if st.MaxObservedDistance != 2 {
		t.Errorf("max distance %d", st.MaxObservedDistance)
	}
	if st.Total() != 4 {
		t.Errorf("total retired %d", st.Total())
	}
}

func TestFaults(t *testing.T) {
	// Jump outside text.
	im, err := sasm.Assemble("main:\n JR [0]\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(im)
	m.Step() // JR to address 0
	if err := m.Step(); err == nil {
		t.Error("expected fetch fault after jump to 0")
	}

	// Misaligned load.
	im2, err := sasm.Assemble("main:\n ADDi [0], 2\n LD [1], 0\n")
	if err != nil {
		t.Fatal(err)
	}
	m2 := New(im2)
	m2.Step()
	if err := m2.Step(); err == nil {
		t.Error("expected misaligned load fault")
	}

	// Instruction limit without exit.
	im3, err := sasm.Assemble("main:\n J main\n")
	if err != nil {
		t.Fatal(err)
	}
	m3 := New(im3)
	if _, err := m3.Run(100); err == nil {
		t.Error("expected instruction-limit error")
	}
}

func TestStepAfterExitReturnsEOF(t *testing.T) {
	m, _ := run(t, "main:\n ADDi [0], 0\n SYS exit, [1]\n", 10)
	if err := m.Step(); err != io.EOF {
		t.Errorf("Step after exit: %v, want io.EOF", err)
	}
}

// TestZeroRegister verifies that distance 0 always reads zero, even after
// many instructions have produced values.
func TestZeroRegister(t *testing.T) {
	_, out := run(t, `
main:
    ADDi [0], 99
    ADDi [0], 99
    ADD [0], [0]
    SYS puti, [1]
    SYS exit, [0]
`, 10)
	if out != "0" {
		t.Errorf("zero register output %q", out)
	}
}

// TestTraceCallback checks the retirement trace hook used for
// cross-validation by the cycle core.
func TestTraceCallback(t *testing.T) {
	im, err := sasm.Assemble("main:\n ADDi [0], 5\n ADDi [1], 1\n SYS exit, [0]\n")
	if err != nil {
		t.Fatal(err)
	}
	m := New(im)
	var trace []Retired
	m.TraceFn = func(r Retired) { trace = append(trace, r) }
	m.Run(10)
	if len(trace) != 3 {
		t.Fatalf("trace length %d", len(trace))
	}
	if trace[0].Result != 5 || trace[1].Result != 6 {
		t.Errorf("trace results: %d %d", trace[0].Result, trace[1].Result)
	}
	if trace[1].Count != 1 || trace[1].PC != im.Entry+4 {
		t.Errorf("trace metadata: %+v", trace[1])
	}
}

// TestCloneIndependence checks Clone for oracle replay: the copy must
// carry the full architectural state but evolve independently.
func TestCloneIndependence(t *testing.T) {
	im, err := sasm.Assemble(`
main:
    ADDi [0], 5
    ADDi [1], 1
    ADDi [1], 1
    SYS exit, [1]
`)
	if err != nil {
		t.Fatal(err)
	}
	m := New(im)
	m.Step()
	m.Step()
	c := m.Clone()
	if c.PC() != m.PC() || c.InstCount() != m.InstCount() {
		t.Fatal("clone state mismatch")
	}
	if c.Reg(1) != m.Reg(1) {
		t.Fatal("clone window mismatch")
	}
	// Advance the clone only.
	c.Step()
	if c.InstCount() == m.InstCount() {
		t.Error("clone must advance independently")
	}
	// Memory isolation.
	m.Mem().Store(0x20000000, 42, 4)
	if c.Mem().Load(0x20000000, 4) == 42 {
		t.Error("clone memory must be isolated")
	}
}

// TestStrictModeNeverWrittenSlot: reading a slot older than the first
// executed instruction faults in strict mode but silently reads zero
// otherwise.
func TestStrictModeNeverWrittenSlot(t *testing.T) {
	im, err := sasm.Assemble("main:\n ADD [1], [2]\n SYS exit, [0]\n")
	if err != nil {
		t.Fatal(err)
	}
	// Non-strict: the ring is zero-initialized, so the program runs.
	if _, err := New(im).Run(100); err != nil {
		t.Fatalf("non-strict run: %v", err)
	}
	m := New(im)
	m.SetStrict(0)
	_, err = m.Run(100)
	var f *emu.Fault
	if !errors.As(err, &f) {
		t.Fatalf("strict run: got %v, want Fault", err)
	}
	if f.PC != im.Entry {
		t.Errorf("fault PC %#x, want entry %#x", f.PC, im.Entry)
	}
}

// TestStrictModeOverBound: a read beyond the configured distance bound
// faults only in strict mode.
func TestStrictModeOverBound(t *testing.T) {
	src := `main:
 ADDi [0], 1
 ADDi [0], 2
 ADDi [0], 3
 ADDi [0], 4
 ADDi [0], 5
 RMOV [5]
 SYS exit, [0]
`
	im, err := sasm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(im).Run(100); err != nil {
		t.Fatalf("non-strict run: %v", err)
	}
	m := New(im)
	m.SetStrict(4)
	_, err = m.Run(100)
	var f *emu.Fault
	if !errors.As(err, &f) {
		t.Fatalf("strict run at bound 4: got %v, want Fault", err)
	}
	// At bound 5 the same program is legal.
	m = New(im)
	m.SetStrict(5)
	if _, err := m.Run(100); err != nil {
		t.Fatalf("strict run at bound 5: %v", err)
	}
}

// TestStrictModeAcceptsValidProgram: strict mode is transparent for
// well-formed code, including across calls.
func TestStrictModeAcceptsValidProgram(t *testing.T) {
	src := `main:
 ADDi [0], 20
 JAL double
 SYS exit, [0]
double:
 ADD [2], [2]
 JR [2]
`
	im, err := sasm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(im)
	m.SetStrict(31)
	if _, err := m.Run(100); err != nil {
		t.Fatalf("strict run: %v", err)
	}
	if ok, _ := m.Exited(); !ok {
		t.Fatal("program did not exit")
	}
}
