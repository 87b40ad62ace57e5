package ir

// bitset is a set of small non-negative integers: a function's value or
// block IDs, which NewValue and NewBlock keep dense.
type bitset []uint64

// newValueSet returns an empty set sized for every value ID of f.
func newValueSet(f *Func) bitset { return make(bitset, valueWords(f)) }

// valueWords is the length of a set of f's value IDs.
func valueWords(f *Func) int { return f.nextID>>6 + 1 }

func (s bitset) has(i int) bool { return s[i>>6]&(1<<(uint(i)&63)) != 0 }
func (s bitset) add(i int)      { s[i>>6] |= 1 << (uint(i) & 63) }
