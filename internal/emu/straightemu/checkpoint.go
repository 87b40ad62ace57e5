package straightemu

import "straight/internal/program"

// ckptMagic identifies a serialized STRAIGHT checkpoint and versions the
// layout; bump the digit when the encoding changes shape. The framing is
// program.CheckpointFrame with PC and SP leading and the result-window
// ring as the word array.
const ckptMagic = "STRCKP1\x00"

// MarshalBinary serializes the checkpoint canonically (DESIGN.md §16).
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	f := program.CheckpointFrame{Lead: []uint32{c.pc, c.sp}, Count: c.count,
		Exited: c.exited, ExitCode: c.exitCode, Words: c.ring[:], Mem: c.mem}
	return f.Marshal(ckptMagic), nil
}

// UnmarshalBinary replaces c with the checkpoint serialized in data,
// validating the magic, the framing, and that no bytes trail the
// encoding.
func (c *Checkpoint) UnmarshalBinary(data []byte) error {
	f := program.CheckpointFrame{Lead: make([]uint32, 2), Words: c.ring[:], Mem: c.mem}
	if err := f.Unmarshal("straightemu", ckptMagic, data); err != nil {
		return err
	}
	c.pc, c.sp, c.count, c.exited, c.exitCode, c.mem = f.Lead[0], f.Lead[1], f.Count, f.Exited, f.ExitCode, f.Mem
	return nil
}
