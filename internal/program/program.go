// Package program defines the executable image shared by the assemblers,
// linkers, functional emulators and cycle-accurate simulators: a flat
// text+data memory layout with a symbol table and an entry point.
package program

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Default memory layout. The layout is a simulator convention, not an ISA
// property: text low, static data in the middle, stack descending from the
// top of a 31-bit space (keeping addresses positive as int32 simplifies
// pointer arithmetic in compiled code).
const (
	DefaultTextBase  = 0x0000_1000
	DefaultDataBase  = 0x1000_0000
	DefaultStackTop  = 0x7FFF_F000
	DefaultHeapBase  = 0x2000_0000
	WordBytes        = 4
	InstructionBytes = 4
)

// Image is a linked, loadable program.
type Image struct {
	// Entry is the address of the first instruction to execute.
	Entry uint32
	// TextBase is the load address of Text[0].
	TextBase uint32
	// Text holds the encoded instruction words in program order.
	Text []uint32
	// DataBase is the load address of Data[0].
	DataBase uint32
	// Data holds the initialized static data bytes.
	Data []byte
	// Symbols maps label names to addresses (text or data).
	Symbols map[string]uint32
}

// New returns an empty image with the default layout.
func New() *Image {
	return &Image{
		TextBase: DefaultTextBase,
		DataBase: DefaultDataBase,
		Symbols:  make(map[string]uint32),
	}
}

// TextEnd returns the first address past the text segment.
func (im *Image) TextEnd() uint32 {
	return im.TextBase + uint32(len(im.Text))*InstructionBytes
}

// DataEnd returns the first address past the initialized data segment.
func (im *Image) DataEnd() uint32 {
	return im.DataBase + uint32(len(im.Data))
}

// ContainsText reports whether addr falls inside the text segment.
//
//lint:hotpath
func (im *Image) ContainsText(addr uint32) bool {
	return addr >= im.TextBase && addr < im.TextEnd()
}

// FetchWord returns the instruction word at addr. It reports an error for
// misaligned or out-of-range fetches, which the simulators treat as a fatal
// program fault.
//
//lint:hotpath
func (im *Image) FetchWord(addr uint32) (uint32, error) {
	if addr%InstructionBytes != 0 {
		return 0, fmt.Errorf("program: misaligned instruction fetch at %#08x", addr) //lint:alloc fetch fault aborts the run
	}
	if !im.ContainsText(addr) {
		return 0, fmt.Errorf("program: instruction fetch outside text at %#08x", addr) //lint:alloc fetch fault aborts the run
	}
	return im.Text[(addr-im.TextBase)/InstructionBytes], nil
}

// Symbol returns the address of a named symbol.
func (im *Image) Symbol(name string) (uint32, bool) {
	a, ok := im.Symbols[name]
	return a, ok
}

// SymbolNames returns all symbol names sorted by address (ties by name),
// convenient for stable disassembly listings.
func (im *Image) SymbolNames() []string {
	names := make([]string, 0, len(im.Symbols))
	for n := range im.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ai, aj := im.Symbols[names[i]], im.Symbols[names[j]]
		if ai != aj {
			return ai < aj
		}
		return names[i] < names[j]
	})
	return names
}

// NearestSymbol returns the name and offset of the closest symbol at or
// below addr, for trace annotation. ok is false if no symbol precedes addr.
func (im *Image) NearestSymbol(addr uint32) (name string, offset uint32, ok bool) {
	var bestAddr uint32
	for n, a := range im.Symbols {
		if a <= addr && (!ok || a > bestAddr || (a == bestAddr && n < name)) {
			name, bestAddr, ok = n, a, true
		}
	}
	return name, addr - bestAddr, ok
}

// Memory is a sparse byte-addressed little-endian memory used by the
// functional emulators and as the backing store behind the simulated cache
// hierarchy. The zero value is ready to use.
type Memory struct {
	pages map[uint32]*[pageSize]byte

	// One-entry page translation cache: workload accesses are heavily
	// page-local, so most loads and stores skip the map lookup entirely.
	lastPN   uint32
	lastPage *[pageSize]byte
}

const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	pn := addr >> pageShift
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	if m.pages == nil {
		if !create {
			return nil
		}
		m.pages = make(map[uint32]*[pageSize]byte) //lint:alloc sparse-memory page table built on first touch
	}
	p := m.pages[pn] //lint:alloc page-table lookup; the lastPage cache makes it rare
	if p == nil && create {
		p = new([pageSize]byte) //lint:alloc page frames are allocated once on first touch and reused across Resets
		m.pages[pn] = p         //lint:alloc first-touch page installation
	}
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// LoadByte reads one byte; unmapped memory reads as zero.
func (m *Memory) LoadByte(addr uint32) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&(pageSize-1)]
	}
	return 0
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v byte) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// Load reads width bytes little-endian (width must be 1, 2 or 4).
//
//lint:hotpath
func (m *Memory) Load(addr uint32, width int) uint32 {
	// Fast path: access within one page.
	off := addr & (pageSize - 1)
	if p := m.page(addr, false); p != nil && int(off)+width <= pageSize {
		switch width {
		case 1:
			return uint32(p[off])
		case 2:
			return uint32(binary.LittleEndian.Uint16(p[off:]))
		case 4:
			return binary.LittleEndian.Uint32(p[off:])
		}
	}
	var v uint32
	for i := 0; i < width; i++ {
		v |= uint32(m.LoadByte(addr+uint32(i))) << (8 * i)
	}
	return v
}

// Store writes width bytes little-endian (width must be 1, 2 or 4).
//
//lint:hotpath
func (m *Memory) Store(addr uint32, v uint32, width int) {
	off := addr & (pageSize - 1)
	if int(off)+width <= pageSize {
		p := m.page(addr, true)
		switch width {
		case 1:
			p[off] = byte(v)
			return
		case 2:
			binary.LittleEndian.PutUint16(p[off:], uint16(v))
			return
		case 4:
			binary.LittleEndian.PutUint32(p[off:], v)
			return
		}
	}
	for i := 0; i < width; i++ {
		m.StoreByte(addr+uint32(i), byte(v>>(8*i)))
	}
}

// WriteBytes copies b into memory starting at addr.
func (m *Memory) WriteBytes(addr uint32, b []byte) {
	for i, c := range b {
		m.StoreByte(addr+uint32(i), c)
	}
}

// LoadImage installs the image's text and data segments. Text is written
// so that memory-mapped instruction reads (e.g. by a unified L2) see the
// same bytes the fetch path decodes.
func (m *Memory) LoadImage(im *Image) {
	for i, w := range im.Text {
		m.Store(im.TextBase+uint32(i)*InstructionBytes, w, 4)
	}
	m.WriteBytes(im.DataBase, im.Data)
}

// Reset zeroes every mapped page and drops the translation cache. Since
// unmapped addresses read as zero, a reset memory is observably
// identical to a fresh one — but the page frames stay allocated, which
// is the point of the batched-run Reset path (DESIGN.md §12). The
// caller reloads the image afterwards.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = [pageSize]byte{}
	}
	m.lastPN = 0
	m.lastPage = nil
}

// Clone returns a deep copy, used to run several simulations from one
// loaded state. All-zero pages stay unmapped in the copy: they read the
// same, and CopyFrom zeroes a page its source lacks.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for pn, p := range m.pages {
		if *p == zeroPage {
			continue
		}
		cp := new([pageSize]byte)
		*cp = *p
		c.pages[pn] = cp
	}
	return c
}

// CopyFrom makes m's observable contents identical to src's while
// reusing m's already-allocated page frames — the checkpoint-restore
// analogue of Reset: pages m has but src lacks are zeroed (observably
// the same as unmapped), shared pages are copied frame-to-frame, and
// only pages src has that m lacks allocate.
func (m *Memory) CopyFrom(src *Memory) {
	for pn, p := range m.pages {
		if sp := src.pages[pn]; sp != nil {
			*p = *sp
		} else {
			*p = [pageSize]byte{}
		}
	}
	for pn, sp := range src.pages {
		if _, ok := m.pages[pn]; ok {
			continue
		}
		if m.pages == nil {
			m.pages = make(map[uint32]*[pageSize]byte)
		}
		cp := new([pageSize]byte)
		*cp = *sp
		m.pages[pn] = cp
	}
	m.lastPN = 0
	m.lastPage = nil
}

// zeroPage is the comparison target for skipping all-zero frames when
// cloning and serializing.
var zeroPage [pageSize]byte

// nonZeroPages returns the numbers of the pages appendBinary records:
// the mapped pages that are not all zero, in ascending order.
func (m *Memory) nonZeroPages() []uint32 {
	pns := make([]uint32, 0, len(m.pages))
	for pn, p := range m.pages {
		if *p != zeroPage {
			pns = append(pns, pn)
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	return pns
}

// binarySize is the length of the appendBinary record of n pages.
func binarySize(n int) int { return 4 + n*(4+pageSize) }

// appendBinary appends the canonical serialization of the memory to b:
// a page count followed by (page number, page bytes) records for pns,
// the result of nonZeroPages. Because unmapped and zeroed pages are
// observably identical, two memories with equal contents always
// serialize to identical bytes — the property the content-addressed
// sample-window cache relies on (DESIGN.md §16).
func (m *Memory) appendBinary(b []byte, pns []uint32) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(pns)))
	for _, pn := range pns {
		b = binary.LittleEndian.AppendUint32(b, pn)
		b = append(b, m.pages[pn][:]...)
	}
	return b
}

// DecodeBinary replaces m's contents with a memory serialized by
// appendBinary, returning the remaining bytes. It validates the framing
// (length, strictly ascending page numbers) so a truncated or corrupted
// stream is reported instead of silently misloading.
func (m *Memory) DecodeBinary(data []byte) (rest []byte, err error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("program: memory decode: truncated page count")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	const recSize = 4 + pageSize
	if uint64(len(data)) < uint64(n)*recSize {
		return nil, fmt.Errorf("program: memory decode: %d pages declared, %d bytes remain", n, len(data))
	}
	m.Reset()
	prev := int64(-1)
	for i := uint32(0); i < n; i++ {
		pn := binary.LittleEndian.Uint32(data)
		if pn >= 1<<(32-pageShift) {
			return nil, fmt.Errorf("program: memory decode: page number %#x outside the 32-bit address space", pn)
		}
		if int64(pn) <= prev {
			return nil, fmt.Errorf("program: memory decode: page numbers not strictly ascending at %#x", pn)
		}
		prev = int64(pn)
		p := m.page(pn<<pageShift, true)
		copy(p[:], data[4:recSize])
		data = data[recSize:]
	}
	return data, nil
}
