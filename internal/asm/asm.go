// Package asm is the two-pass assembler and linker driver shared by the
// STRAIGHT assembler (internal/sasm) and the RV32IM assembler
// (internal/rasm). The driver owns everything the two instruction sets
// write the same way:
//
//   - lines, comments ("#", ";" and "//") and labels, several of which
//     may share a line;
//   - the .text and .data sections and every directive: .entry NAME,
//     .word, .half, .byte, .ascii, .asciz, .space, .align, and the
//     accepted no-ops .globl, .global, .type, .size, .p2align, .option
//     and .attribute (directive names are case-insensitive);
//   - symbol layout, .word symbol fixups and entry-point selection;
//   - error reporting and disassembly.
//
// An instruction set supplies an ISA: how many words an instruction
// line occupies, how to encode it against the symbol table, and how to
// render one word for disassembly.
package asm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"straight/internal/program"
)

// ISA is what one instruction set supplies to the driver.
type ISA struct {
	// Name prefixes every error, as in "sasm: line 3: ...".
	Name string
	// Size returns how many instruction words an item with this
	// mnemonic occupies. The first pass lays out text with it, so Encode
	// must append exactly that many words.
	Size func(mnem string) int
	// Encode appends the machine words of one item, with every symbol
	// resolved. An error is reported at the item's line.
	Encode func(words []uint32, it *Item, symbols map[string]uint32) ([]uint32, error)
	// Format renders one text word for Disassemble.
	Format func(w uint32) string
}

// Item is one instruction line: the mnemonic and operands as written,
// the source line, and the text address of its first word.
type Item struct {
	Line int
	Mnem string
	Ops  []string
	Addr uint32
}

// Error describes an assembly failure with its source position. Line 0
// marks a failure of the whole image, such as an undefined .entry.
type Error struct {
	Asm  string // the ISA's Name
	Line int
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: line %d: %s", e.Asm, e.Line, e.Msg) }

type fixup struct {
	offset int
	symbol string
	line   int
}

type assembler struct {
	isa      *ISA
	items    []Item
	data     []byte
	symbols  map[string]uint32
	fixups   []fixup
	entry    string
	inData   bool
	textAddr uint32
}

// Assemble assembles and links src at the default load addresses. The
// entry point is the .entry symbol if given, else "main", else
// "_start", else the start of the text segment.
func (isa *ISA) Assemble(src string) (*program.Image, error) {
	a := &assembler{isa: isa, symbols: make(map[string]uint32), textAddr: program.DefaultTextBase}
	if err := a.firstPass(src); err != nil {
		return nil, err
	}
	return a.secondPass()
}

func (a *assembler) errorf(line int, format string, args ...any) error {
	return &Error{a.isa.Name, line, fmt.Sprintf(format, args...)}
}

// firstPass splits the source into labeled items, lays out both sections
// and records symbol addresses.
func (a *assembler) firstPass(src string) error {
	for lineNo, raw := range strings.Split(src, "\n") {
		lineNo++
		line := stripComment(raw)
		// Peel off any leading labels (several may share a line).
		for {
			trimmed := strings.TrimSpace(line)
			i := indexLabel(trimmed)
			if i < 0 {
				line = trimmed
				break
			}
			name := trimmed[:i]
			if !ValidIdent(name) {
				return a.errorf(lineNo, "invalid label %q", name)
			}
			if _, dup := a.symbols[name]; dup {
				return a.errorf(lineNo, "duplicate label %q", name)
			}
			if a.inData {
				a.symbols[name] = program.DefaultDataBase + uint32(len(a.data))
			} else {
				a.symbols[name] = a.textAddr
			}
			line = trimmed[i+1:]
		}
		fields := splitOperands(line)
		if len(fields) == 0 {
			continue // blank, or nothing but separators
		}
		mnem, ops := fields[0], fields[1:]
		if strings.HasPrefix(mnem, ".") {
			if err := a.directive(lineNo, strings.ToLower(mnem), ops, line); err != nil {
				return err
			}
			continue
		}
		if a.inData {
			return a.errorf(lineNo, "instruction %q in data section", mnem)
		}
		a.items = append(a.items, Item{Line: lineNo, Mnem: mnem, Ops: ops, Addr: a.textAddr})
		a.textAddr += uint32(a.isa.Size(mnem)) * program.InstructionBytes
	}
	return nil
}

func (a *assembler) directive(line int, name string, ops []string, full string) error {
	switch name {
	case ".text", ".data":
		a.inData = name == ".data"
		return nil
	case ".globl", ".global", ".type", ".size", ".p2align", ".option", ".attribute":
		return nil
	case ".entry":
		if len(ops) != 1 {
			return a.errorf(line, ".entry requires one symbol")
		}
		a.entry = ops[0]
		return nil
	case ".align":
		if len(ops) != 1 {
			return a.errorf(line, ".align requires a boundary")
		}
		n, err := ParseInt(ops[0])
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return a.errorf(line, "bad .align boundary (power of two)")
		}
		for a.inData && len(a.data)%int(n) != 0 {
			a.data = append(a.data, 0)
		}
		return nil
	case ".word", ".half", ".byte", ".ascii", ".asciz", ".space":
		// The data directives, below.
	default:
		return a.errorf(line, "unknown directive %q", name)
	}
	if !a.inData {
		return a.errorf(line, "%s outside .data", name)
	}
	switch name {
	case ".ascii", ".asciz":
		s, err := extractString(full)
		if err != nil {
			return a.errorf(line, "%v", err)
		}
		a.data = append(a.data, s...)
		if name == ".asciz" {
			a.data = append(a.data, 0)
		}
	case ".space":
		if len(ops) != 1 {
			return a.errorf(line, ".space requires a size")
		}
		n, err := ParseInt(ops[0])
		if err != nil || n < 0 {
			return a.errorf(line, "bad .space size")
		}
		a.data = append(a.data, make([]byte, n)...)
	default: // .word, .half, .byte
		width := map[string]int{".word": 4, ".half": 2, ".byte": 1}[name]
		for _, op := range ops {
			// Symbol references are patched in the second pass; reserve
			// space now and remember the fixup.
			n, err := ParseInt(op)
			switch {
			case err == nil:
			case !ValidIdent(op):
				return a.errorf(line, "bad %s operand %q", name, op)
			case width != 4:
				return a.errorf(line, "symbol data must be .word")
			default:
				a.fixups = append(a.fixups, fixup{offset: len(a.data), symbol: op, line: line})
			}
			for i := 0; i < width; i++ {
				a.data = append(a.data, byte(uint32(n)>>(8*i)))
			}
		}
	}
	return nil
}

// secondPass patches data fixups, encodes every item with symbols
// resolved, and selects the entry point.
func (a *assembler) secondPass() (*program.Image, error) {
	im := program.New()
	im.Symbols = a.symbols
	im.Data = a.data
	for _, fx := range a.fixups {
		addr, ok := a.symbols[fx.symbol]
		if !ok {
			return nil, a.errorf(fx.line, "undefined symbol %q in .word", fx.symbol)
		}
		for i := 0; i < 4; i++ {
			im.Data[fx.offset+i] = byte(addr >> (8 * i))
		}
	}
	im.Text = make([]uint32, 0, (a.textAddr-im.TextBase)/program.InstructionBytes)
	for i := range a.items {
		var err error
		if im.Text, err = a.isa.Encode(im.Text, &a.items[i], a.symbols); err != nil {
			return nil, a.errorf(a.items[i].Line, "%v", err)
		}
	}
	im.Entry = im.TextBase
	for _, name := range []string{"_start", "main"} {
		if e, ok := a.symbols[name]; ok {
			im.Entry = e
		}
	}
	if a.entry != "" {
		e, ok := a.symbols[a.entry]
		if !ok {
			return nil, a.errorf(0, "undefined .entry symbol %q", a.entry)
		}
		im.Entry = e
	}
	return im, nil
}

// Disassemble renders the text segment with addresses and symbols, for
// debugging and golden tests.
func (isa *ISA) Disassemble(im *program.Image) string {
	var b strings.Builder
	names := im.SymbolNames()
	for i, w := range im.Text {
		addr := im.TextBase + uint32(i)*program.InstructionBytes
		for _, name := range names {
			if im.Symbols[name] == addr {
				fmt.Fprintf(&b, "%s:\n", name)
			}
		}
		fmt.Fprintf(&b, "  %08x: %08x  %s\n", addr, w, isa.Format(w))
	}
	return b.String()
}

// ParseInt parses an integer literal in any Go base prefix, ignoring
// underscores. Unsigned 32-bit values such as 0xFFFFFFFF wrap to their
// int32 value.
func ParseInt(tok string) (int64, error) {
	tok = strings.ReplaceAll(tok, "_", "")
	n, err := strconv.ParseInt(tok, 0, 64)
	if err != nil {
		if u, uerr := strconv.ParseUint(tok, 0, 32); uerr == nil {
			return int64(int32(uint32(u))), nil
		}
		return 0, err
	}
	return n, nil
}

func identChar(c byte) bool {
	return c == '_' || c == '.' || c == '$' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
}

// ValidIdent reports whether s can name a symbol: identifier characters
// (letters, digits, '_', '.', '$') not starting with a digit.
func ValidIdent(s string) bool {
	if s == "" || (s[0] >= '0' && s[0] <= '9') {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !identChar(s[i]) {
			return false
		}
	}
	return true
}

func stripComment(line string) string {
	inStr := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '"' {
			inStr = !inStr
			continue
		}
		if inStr {
			if c == '\\' {
				i++
			}
			continue
		}
		if c == '#' || c == ';' || (c == '/' && i+1 < len(line) && line[i+1] == '/') {
			return line[:i]
		}
	}
	return line
}

// indexLabel returns the index of a label-terminating ':' at the start of
// the trimmed line, or -1.
func indexLabel(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == ':' {
			return i
		}
		if !identChar(s[i]) {
			return -1
		}
	}
	return -1
}

// splitOperands splits a line into mnemonic and operands. Commas and
// whitespace both separate operands outside parentheses, so the paper's
// "ADD [4] [3]" and RISC-V's "lw t0, 8(sp)" both tokenize.
func splitOperands(line string) []string {
	var out []string
	start, depth := -1, 0
	for i := 0; i <= len(line); i++ {
		sep := i == len(line)
		if !sep {
			switch line[i] {
			case '(':
				depth++
			case ')':
				depth--
			case ' ', '\t', ',':
				sep = depth == 0
			}
		}
		switch {
		case sep && start >= 0:
			out = append(out, line[start:i])
			start = -1
		case !sep && start < 0:
			start = i
		}
	}
	return out
}

func extractString(line string) (string, error) {
	i := strings.IndexByte(line, '"')
	if i < 0 {
		return "", errors.New("missing string literal")
	}
	s, err := strconv.Unquote(line[i:])
	if err == nil {
		return s, nil
	}
	// strconv.Unquote needs the exact quoted region; find the closing quote.
	for j := len(line) - 1; j > i; j-- {
		if line[j] == '"' {
			if u, uerr := strconv.Unquote(line[i : j+1]); uerr == nil {
				return u, nil
			}
		}
	}
	return "", fmt.Errorf("bad string literal: %v", err)
}
