package riscvemu

import "straight/internal/program"

// ckptMagic identifies a serialized RV32 checkpoint and versions the
// layout; bump the digit when the encoding changes shape. The framing is
// program.CheckpointFrame with the PC leading and the 32 architectural
// registers as the word array.
const ckptMagic = "RV32CKP1"

// MarshalBinary serializes the checkpoint canonically (DESIGN.md §16).
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	f := program.CheckpointFrame{Lead: []uint32{c.pc}, Count: c.count,
		Exited: c.exited, ExitCode: c.exitCode, Words: c.regs[:], Mem: c.mem}
	return f.Marshal(ckptMagic), nil
}

// UnmarshalBinary replaces c with the checkpoint serialized in data,
// validating the magic, the framing, and that no bytes trail the
// encoding.
func (c *Checkpoint) UnmarshalBinary(data []byte) error {
	f := program.CheckpointFrame{Lead: make([]uint32, 1), Words: c.regs[:], Mem: c.mem}
	if err := f.Unmarshal("riscvemu", ckptMagic, data); err != nil {
		return err
	}
	c.pc, c.count, c.exited, c.exitCode, c.mem = f.Lead[0], f.Count, f.Exited, f.ExitCode, f.Mem
	return nil
}
