// Package emu is the machine shell both functional emulators embed:
// straightemu (STRAIGHT) and riscvemu (RV32IM). The shell holds what the
// two machines share: the image, memory, PC, instruction count, exit
// status and console output, with their accessors, Reset, Clone and the
// ISA-neutral part of a checkpoint. It also defines the one fault type
// and the one fetch check.
//
// Each ISA keeps its register state, statistics, strict mode, predecoded
// text table and execute switch, and its own Run and RunUntil loops, so
// that Step stays a direct call on the fast-forward and lockstep-oracle
// paths (DESIGN.md §6.1).
package emu

import (
	"fmt"
	"io"
	"strconv"

	"straight/internal/program"
)

// FaultKind classifies an architectural fault so callers (in particular
// the differential fuzzer's oracle stack) can distinguish a malformed
// program or a generator bug from a genuine simulator divergence.
type FaultKind uint8

const (
	// FaultFetch: instruction fetch outside text or misaligned PC.
	FaultFetch FaultKind = iota
	// FaultDecode: undecodable instruction word, unimplemented opcode or
	// EBREAK.
	FaultDecode
	// FaultStrictBound (STRAIGHT strict mode): a source read beyond the
	// distance bound.
	FaultStrictBound
	// FaultStrictUninit (STRAIGHT strict mode): a source read of a slot
	// no instruction has written yet.
	FaultStrictUninit
	// FaultMisaligned: misaligned data access or jump target.
	FaultMisaligned
	// FaultBadSys: unknown system-call function code.
	FaultBadSys
	// FaultLimit: the Run instruction limit was reached without exit.
	FaultLimit
)

var faultKindNames = [...]string{
	FaultFetch:        "fetch",
	FaultDecode:       "decode",
	FaultStrictBound:  "strict-over-bound",
	FaultStrictUninit: "strict-uninitialized",
	FaultMisaligned:   "misaligned",
	FaultBadSys:       "bad-sys",
	FaultLimit:        "insn-limit",
}

func (k FaultKind) String() string {
	if int(k) < len(faultKindNames) {
		return faultKindNames[k]
	}
	return fmt.Sprintf("FaultKind(%d)", uint8(k))
}

// Fault is an architectural execution fault (bad fetch, bad opcode,
// strict-mode violation, misaligned access, bad system call, limit).
type Fault struct {
	Emu   string // the emulator's package name, which prefixes the message
	Kind  FaultKind
	PC    uint32
	Count uint64
	Msg   string
}

func (f *Fault) Error() string {
	return fmt.Sprintf("%s: %s fault at pc=%#08x insn#%d: %s", f.Emu, f.Kind, f.PC, f.Count, f.Msg)
}

// Shell is the ISA-neutral state of a functional machine. The ISA's
// Machine embeds it and reads and writes the exported fields directly
// in Step.
type Shell struct {
	name string //lint:resetless machine identity, fixed at construction

	Image  *program.Image
	Memory *program.Memory
	// Pc is the address of the next instruction; Count the number of
	// instructions executed.
	Pc    uint32
	Count uint64
	// Halted is set by the exit system call, with ExitCode its argument.
	Halted   bool
	ExitCode int32

	out   io.Writer //lint:resetless output attachment, survives Reset by design
	ioBuf []byte    // reusable console-output buffer (keeps syscalls allocation-free)
}

// NewShell returns the power-on shell for the image, with an isolated
// memory copy. name ("straightemu", "riscvemu") prefixes its faults.
func NewShell(name string, im *program.Image) Shell {
	s := Shell{name: name, Image: im, Memory: program.NewMemory(), Pc: im.Entry, out: io.Discard}
	s.Memory.LoadImage(im)
	return s
}

// Reset returns the shell to power-on state for img (nil = rerun the
// current image), reusing the sparse memory's page frames and the
// console buffer. It reports whether the image changed, so the caller
// knows to rebuild its predecoded text. Output survives.
func (s *Shell) Reset(img *program.Image) bool {
	if img == nil {
		img = s.Image
	}
	changed := img != s.Image
	s.Image = img
	s.Memory.Reset()
	s.Memory.LoadImage(img)
	s.Pc = img.Entry
	s.Count = 0
	s.Halted, s.ExitCode = false, 0
	s.ioBuf = s.ioBuf[:0]
	return changed
}

// Clone returns an independent copy of the state (own memory, discarded
// output) for oracle replay.
func (s *Shell) Clone() Shell {
	return Shell{name: s.name, Image: s.Image, Memory: s.Memory.Clone(), Pc: s.Pc, Count: s.Count,
		Halted: s.Halted, ExitCode: s.ExitCode, out: io.Discard}
}

// SetOutput directs console system-call output to w.
func (s *Shell) SetOutput(w io.Writer) { s.out = w }

// Mem exposes the machine memory (for test setup and inspection).
func (s *Shell) Mem() *program.Memory { return s.Memory }

// PC returns the current program counter.
//
//lint:hotpath
func (s *Shell) PC() uint32 { return s.Pc }

// InstCount returns the dynamic instruction count.
func (s *Shell) InstCount() uint64 { return s.Count }

// Exited reports whether the program executed the exit system call, and
// its code.
//
//lint:hotpath
func (s *Shell) Exited() (bool, int32) { return s.Halted, s.ExitCode }

// Faultf returns a fault of the given kind at the current PC and count.
//
//lint:coldpath fault construction; a fault aborts the run
func (s *Shell) Faultf(kind FaultKind, format string, args ...any) error {
	return &Fault{Emu: s.name, Kind: kind, PC: s.Pc, Count: s.Count, Msg: fmt.Sprintf(format, args...)}
}

// Fetch is the fetch check: it returns the index of the instruction at
// the PC in the n-entry predecoded text table, and false when the PC is
// misaligned or outside text. It is small enough to inline into Step;
// the caller words the fault with FetchFault.
//
//lint:hotpath
func (s *Shell) Fetch(n int) (int, bool) {
	off := s.Pc - s.Image.TextBase
	if s.Pc%program.InstructionBytes != 0 || off/program.InstructionBytes >= uint32(n) {
		return 0, false
	}
	return int(off / program.InstructionBytes), true
}

// FetchFault is the fault for a PC that Fetch refused. It carries
// Image.FetchWord's message, which only the fault path computes.
//
//lint:coldpath fault construction; a fault aborts the run
func (s *Shell) FetchFault() error {
	_, err := s.Image.FetchWord(s.Pc)
	return s.Faultf(FaultFetch, "%v", err)
}

// Console output is formatted into a reusable buffer instead of fmt,
// whose interface boxing allocates on every call: system calls sit on
// the cross-validated retire path.

// Putc writes one byte to the console.
//
//lint:hotpath
func (s *Shell) Putc(b byte) {
	s.reserve()
	s.ioBuf = append(s.ioBuf[:0], b)
	s.out.Write(s.ioBuf)
}

// Puti writes v in signed decimal.
//
//lint:hotpath
func (s *Shell) Puti(v int32) {
	s.reserve()
	s.ioBuf = strconv.AppendInt(s.ioBuf[:0], int64(v), 10)
	s.out.Write(s.ioBuf)
}

// Putu writes v in unsigned decimal.
//
//lint:hotpath
func (s *Shell) Putu(v uint32) { s.putUnsigned(v, 10) }

// Putx writes v in lower-case hexadecimal, without a prefix.
//
//lint:hotpath
func (s *Shell) Putx(v uint32) { s.putUnsigned(v, 16) }

func (s *Shell) putUnsigned(v uint32, base int) {
	s.reserve()
	s.ioBuf = strconv.AppendUint(s.ioBuf[:0], uint64(v), base)
	s.out.Write(s.ioBuf)
}

func (s *Shell) reserve() {
	if s.ioBuf == nil {
		s.ioBuf = make([]byte, 0, 32) //lint:alloc console buffer allocated once on first output syscall
	}
}

// Snapshot is the ISA-neutral part of a checkpoint: PC, instruction
// count, memory and exit status. Statistics and the output writer are
// not part of it: a restored machine keeps accumulating into the same
// statistics and writing to the same output.
type Snapshot struct {
	pc       uint32
	count    uint64
	mem      *program.Memory
	exited   bool
	exitCode int32
}

// Snapshot captures the shell's part of a checkpoint. The memory is
// copied, so the snapshot stays valid however far execution proceeds.
func (s *Shell) Snapshot() Snapshot {
	return Snapshot{pc: s.Pc, count: s.Count, mem: s.Memory.Clone(), exited: s.Halted, exitCode: s.ExitCode}
}

// Restore rewinds the shell to c, reusing the shell's page frames rather
// than reallocating. c stays valid for further restores.
func (s *Shell) Restore(c *Snapshot) {
	s.Pc, s.Count = c.pc, c.count
	s.Memory.CopyFrom(c.mem)
	s.Halted, s.ExitCode = c.exited, c.exitCode
}

// Count returns the dynamic instruction count at which the checkpoint
// was taken.
func (c *Snapshot) Count() uint64 { return c.count }

// PC returns the checkpointed program counter.
func (c *Snapshot) PC() uint32 { return c.pc }

// Mem exposes the checkpointed memory. Callers must treat it as
// read-only: the checkpoint stays valid for further Restore calls.
func (c *Snapshot) Mem() *program.Memory { return c.mem }

// Exited reports the checkpointed exit status.
func (c *Snapshot) Exited() (bool, int32) { return c.exited, c.exitCode }

// MarshalFrame serializes the checkpoint canonically in
// program.CheckpointFrame (DESIGN.md §16) under magic: the PC leads,
// followed by the ISA's other lead registers, and words is the ISA's
// word array.
func (c *Snapshot) MarshalFrame(magic string, lead, words []uint32) []byte {
	f := program.CheckpointFrame{Lead: append([]uint32{c.pc}, lead...), Count: c.count,
		Exited: c.exited, ExitCode: c.exitCode, Words: words, Mem: c.mem}
	return f.Marshal(magic)
}

// UnmarshalFrame replaces c with the checkpoint MarshalFrame serialized
// in data, filling lead and words in place. It validates the magic, the
// framing, and that no bytes trail the encoding; errors read
// "<pkg>: checkpoint decode: ...".
func (c *Snapshot) UnmarshalFrame(pkg, magic string, data []byte, lead, words []uint32) error {
	f := program.CheckpointFrame{Lead: make([]uint32, 1+len(lead)), Words: words, Mem: c.mem}
	if err := f.Unmarshal(pkg, magic, data); err != nil {
		return err
	}
	copy(lead, f.Lead[1:])
	c.pc, c.count, c.exited, c.exitCode, c.mem = f.Lead[0], f.Count, f.Exited, f.ExitCode, f.Mem
	return nil
}
