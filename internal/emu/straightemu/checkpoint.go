package straightemu

// ckptMagic identifies a serialized STRAIGHT checkpoint and versions the
// layout; bump the digit when the encoding changes shape. The framing is
// program.CheckpointFrame with PC and SP leading and the result-window
// ring as the word array.
const ckptMagic = "STRCKP1\x00"

// MarshalBinary serializes the checkpoint canonically (DESIGN.md §16).
func (c *Checkpoint) MarshalBinary() ([]byte, error) {
	return c.MarshalFrame(ckptMagic, []uint32{c.sp}, c.ring[:]), nil
}

// UnmarshalBinary replaces c with the checkpoint serialized in data,
// validating the magic, the framing, and that no bytes trail the
// encoding.
func (c *Checkpoint) UnmarshalBinary(data []byte) error {
	sp := []uint32{0}
	if err := c.UnmarshalFrame("straightemu", ckptMagic, data, sp, c.ring[:]); err != nil {
		return err
	}
	c.sp = sp[0]
	return nil
}
