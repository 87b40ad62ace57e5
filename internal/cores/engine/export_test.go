package engine

// PolicyOf exposes a core's policy to the external tests, which wrap a
// real policy to observe the engine's calls into it.
func PolicyOf[I Inst](c *Core[I]) Policy[I] { return c.pol }
