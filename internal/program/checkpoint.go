package program

import (
	"encoding/binary"
	"fmt"
)

// CheckpointFrame is the binary framing both functional emulators
// serialize their checkpoints in (DESIGN.md §16). All fields are
// little-endian, in this order:
//
//	magic (8 bytes), Lead u32s, u64 Count, u8 Exited, u32 ExitCode,
//	Words u32s, memory (Memory.appendBinary)
//
// The encoding is canonical, so a given architectural state always
// produces identical bytes. The sampled simulator relies on this: it
// content-addresses sample windows by checkpoint hash, so two runs that
// reach the same state must map to the same result-store key. Lead and
// Words have lengths fixed by the ISA; the decoder takes them from the
// caller's slices.
type CheckpointFrame struct {
	// Lead holds the leading registers: PC, then SP on STRAIGHT.
	Lead     []uint32
	Count    uint64
	Exited   bool
	ExitCode int32
	// Words holds the STRAIGHT result window or the RISC-V registers.
	Words []uint32
	Mem   *Memory
}

func (f *CheckpointFrame) headSize(magic string) int {
	return len(magic) + 4*len(f.Lead) + 8 + 1 + 4 + 4*len(f.Words)
}

// Marshal serializes the frame under magic into a buffer of exactly the
// encoded size: memory contributes only its non-zero pages, however
// many zero pages are mapped.
func (f *CheckpointFrame) Marshal(magic string) []byte {
	pns := f.Mem.nonZeroPages()
	b := make([]byte, 0, f.headSize(magic)+binarySize(len(pns)))
	b = append(b, magic...)
	for _, v := range f.Lead {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = binary.LittleEndian.AppendUint64(b, f.Count)
	if f.Exited {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(f.ExitCode))
	for _, v := range f.Words {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	return f.Mem.appendBinary(b, pns)
}

// Unmarshal decodes data into f, validating the magic, the framing,
// and that no bytes trail the encoding. It fills f.Lead and f.Words in
// place and decodes memory into f.Mem, allocating it when nil. Errors
// read "<pkg>: checkpoint decode: ...".
func (f *CheckpointFrame) Unmarshal(pkg, magic string, data []byte) error {
	fail := func(err error) error { return fmt.Errorf("%s: checkpoint decode: %w", pkg, err) }
	if n := f.headSize(magic); len(data) < n {
		return fail(fmt.Errorf("%d bytes, want at least %d", len(data), n))
	}
	if string(data[:len(magic)]) != magic {
		return fail(fmt.Errorf("bad magic %q", data[:len(magic)]))
	}
	p := data[len(magic):]
	for i := range f.Lead {
		f.Lead[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	p = p[4*len(f.Lead):]
	f.Count = binary.LittleEndian.Uint64(p)
	switch p[8] {
	case 0:
		f.Exited = false
	case 1:
		f.Exited = true
	default:
		return fail(fmt.Errorf("bad exited flag %d", p[8]))
	}
	f.ExitCode = int32(binary.LittleEndian.Uint32(p[9:]))
	p = p[13:]
	for i := range f.Words {
		f.Words[i] = binary.LittleEndian.Uint32(p[4*i:])
	}
	if f.Mem == nil {
		f.Mem = NewMemory()
	}
	rest, err := f.Mem.DecodeBinary(p[4*len(f.Words):])
	if err != nil {
		return fail(err)
	}
	if len(rest) != 0 {
		return fail(fmt.Errorf("%d trailing bytes", len(rest)))
	}
	return nil
}
