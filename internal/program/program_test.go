package program

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestImageLayoutAndFetch(t *testing.T) {
	im := New()
	im.Text = []uint32{0xAABBCCDD, 0x11223344}
	im.Entry = im.TextBase

	if im.TextEnd() != im.TextBase+8 {
		t.Errorf("TextEnd %#x", im.TextEnd())
	}
	w, err := im.FetchWord(im.TextBase + 4)
	if err != nil || w != 0x11223344 {
		t.Errorf("FetchWord: %#x %v", w, err)
	}
	if _, err := im.FetchWord(im.TextBase + 8); err == nil {
		t.Error("fetch past end should fail")
	}
	if _, err := im.FetchWord(im.TextBase + 2); err == nil {
		t.Error("misaligned fetch should fail")
	}
	if im.ContainsText(im.TextBase - 4) {
		t.Error("ContainsText below base")
	}
}

func TestSymbols(t *testing.T) {
	im := New()
	im.Symbols["b"] = 0x2000
	im.Symbols["a"] = 0x1000
	im.Symbols["c"] = 0x2000

	names := im.SymbolNames()
	if len(names) != 3 || names[0] != "a" || names[1] != "b" || names[2] != "c" {
		t.Errorf("SymbolNames order: %v", names)
	}
	name, off, ok := im.NearestSymbol(0x2010)
	if !ok || name != "b" || off != 0x10 {
		t.Errorf("NearestSymbol: %q +%#x %v", name, off, ok)
	}
	if _, _, ok := im.NearestSymbol(0x500); ok {
		t.Error("NearestSymbol below all symbols should fail")
	}
}

func TestMemoryBasic(t *testing.T) {
	m := NewMemory()
	if m.Load(0x1000, 4) != 0 {
		t.Error("unmapped memory must read zero")
	}
	m.Store(0x1000, 0xDEADBEEF, 4)
	if m.Load(0x1000, 4) != 0xDEADBEEF {
		t.Error("word round trip")
	}
	if m.Load(0x1000, 1) != 0xEF || m.Load(0x1001, 1) != 0xBE {
		t.Error("little-endian byte order")
	}
	m.Store(0x1002, 0x55, 1)
	if m.Load(0x1000, 4) != 0xDE55BEEF {
		t.Errorf("byte store merge: %#x", m.Load(0x1000, 4))
	}
	// Cross-page access.
	m.Store(0x1FFE, 0xCAFEBABE, 4)
	if m.Load(0x1FFE, 4) != 0xCAFEBABE {
		t.Error("cross-page word")
	}
	if m.Load(0x2000, 2) != 0xCAFE {
		t.Errorf("upper half on next page: %#x", m.Load(0x2000, 2))
	}
}

func TestMemoryCloneIsolation(t *testing.T) {
	m := NewMemory()
	m.Store(0x100, 1, 4)
	c := m.Clone()
	c.Store(0x100, 2, 4)
	if m.Load(0x100, 4) != 1 || c.Load(0x100, 4) != 2 {
		t.Error("clone must be isolated")
	}
}

// TestMemoryCloneSkipsZeroPages clones a memory with 4 MiB of zeroed
// mapped pages and a few non-zero bytes: the clone reads the same
// everywhere but holds only the non-zero pages, and CopyFrom restores
// the original from it into a memory that has diverged.
func TestMemoryCloneSkipsZeroPages(t *testing.T) {
	const base, size = 0x100000, 4 << 20
	m := NewMemory()
	m.WriteBytes(base, make([]byte, size))
	nonZero := map[uint32]byte{base + 5: 0x11, base + 3*pageSize: 0x22, base + size - 1: 0x33, 0x40: 0x44}
	for addr, v := range nonZero {
		m.StoreByte(addr, v)
	}
	c := m.Clone()
	if len(c.pages) != len(nonZero) {
		t.Fatalf("clone maps %d pages, want the %d non-zero ones", len(c.pages), len(nonZero))
	}
	same := func(what string, got, want *Memory) {
		t.Helper()
		for addr := uint32(0); addr < base+size+pageSize; addr += 4 {
			if got.Load(addr, 4) != want.Load(addr, 4) {
				t.Fatalf("%s: word at %#x = %#x, want %#x", what, addr, got.Load(addr, 4), want.Load(addr, 4))
			}
		}
	}
	same("clone", c, m)

	d := m.Clone()
	d.WriteBytes(base+pageSize, []byte{1, 2, 3})
	d.StoreByte(base+5, 0)
	d.StoreByte(0x7000_0000, 9)
	d.CopyFrom(c)
	same("CopyFrom the clone", d, m)
	if d.LoadByte(0x7000_0000) != 0 {
		t.Fatal("CopyFrom kept a page its source lacks")
	}
	m.StoreByte(base+7, 0x55)
	m.CopyFrom(c)
	same("CopyFrom into the original", m, c)
	if m.LoadByte(base+7) != 0 {
		t.Fatal("CopyFrom into the original kept a diverged byte")
	}
}

func TestLoadImage(t *testing.T) {
	im := New()
	im.Text = []uint32{0x01020304}
	im.Data = []byte{9, 8, 7}
	m := NewMemory()
	m.LoadImage(im)
	if m.Load(im.TextBase, 4) != 0x01020304 {
		t.Error("text not loaded")
	}
	if m.LoadByte(im.DataBase+1) != 8 {
		t.Error("data not loaded")
	}
}

// TestMemoryMatchesMapOracle: random stores/loads agree with a simple
// map-based reference model.
func TestMemoryMatchesMapOracle(t *testing.T) {
	m := NewMemory()
	oracle := make(map[uint32]byte)
	r := rand.New(rand.NewSource(99))
	widths := []int{1, 2, 4}
	for i := 0; i < 200000; i++ {
		addr := uint32(r.Intn(1 << 16))
		w := widths[r.Intn(3)]
		if r.Intn(2) == 0 {
			v := r.Uint32()
			m.Store(addr, v, w)
			for j := 0; j < w; j++ {
				oracle[addr+uint32(j)] = byte(v >> (8 * j))
			}
		} else {
			var want uint32
			for j := 0; j < w; j++ {
				want |= uint32(oracle[addr+uint32(j)]) << (8 * j)
			}
			if got := m.Load(addr, w); got != want {
				t.Fatalf("load %d@%#x = %#x want %#x", w, addr, got, want)
			}
		}
	}
}

// TestMemoryStoreLoadQuick is a quick-check round-trip property.
func TestMemoryStoreLoadQuick(t *testing.T) {
	m := NewMemory()
	f := func(addr uint32, v uint32) bool {
		addr &= 0x00FFFFFF
		m.Store(addr, v, 4)
		return m.Load(addr, 4) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointFrameMarshalCapacity: a checkpoint's buffer is sized
// from the pages it records, not from every mapped page. A program
// whose data section maps megabytes of zeros serializes to a few pages,
// and a sampled run holds one such buffer per checkpoint.
func TestCheckpointFrameMarshalCapacity(t *testing.T) {
	m := NewMemory()
	for pn := uint32(0); pn < 1024; pn++ {
		m.Store(DefaultDataBase+pn*pageSize, 0, 4) // mapped, all zero
	}
	m.Store(DefaultDataBase+5*pageSize+8, 0xC0FFEE, 4)
	m.Store(DefaultStackTop-4, 7, 4)
	f := CheckpointFrame{Lead: []uint32{0x1000}, Count: 9, Words: make([]uint32, 32), Mem: m}
	b := f.Marshal("TESTCKP1")
	if want := f.headSize("TESTCKP1") + 4 + 2*(4+pageSize); len(b) != want {
		t.Fatalf("encoding is %d bytes, want %d", len(b), want)
	}
	if cap(b) != len(b) {
		t.Errorf("buffer capacity %d for a %d-byte encoding", cap(b), len(b))
	}
	var g CheckpointFrame
	g.Lead, g.Words = make([]uint32, 1), make([]uint32, 32)
	if err := g.Unmarshal("program", "TESTCKP1", b); err != nil {
		t.Fatal(err)
	}
	if g.Mem.Load(DefaultDataBase+5*pageSize+8, 4) != 0xC0FFEE || g.Mem.Load(DefaultStackTop-4, 4) != 7 || g.Count != 9 {
		t.Error("round trip lost state")
	}
}
