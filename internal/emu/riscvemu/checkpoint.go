package riscvemu

// ckptMagic identifies a serialized RV32 checkpoint and versions the
// layout; bump the digit when the encoding changes shape. The framing is
// program.CheckpointFrame with the PC leading and the 32 architectural
// registers as the word array.
const ckptMagic = "RV32CKP1"

// MarshalBinary serializes the checkpoint canonically (DESIGN.md §16).
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	return c.MarshalFrame(ckptMagic, nil, c.regs[:]), nil
}

// UnmarshalBinary replaces c with the checkpoint serialized in data,
// validating the magic, the framing, and that no bytes trail the
// encoding.
func (c *Checkpoint) UnmarshalBinary(data []byte) error {
	return c.UnmarshalFrame("riscvemu", ckptMagic, data, nil, c.regs[:])
}
