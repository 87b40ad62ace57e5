package minic

import "fmt"

// Parse lexes and parses a MiniC translation unit. A lexical error is
// reported before any syntax error, wherever each lies in the source.
func Parse(src string) (*File, error) {
	p := &parser{
		lx: newLexer(src),
		file: &File{
			Structs:    make(map[string]*StructType),
			EnumConsts: make(map[string]int32),
		},
	}
	p.cur, p.ahead = p.scan(), p.scan()
	err := p.parseFile()
	for p.lexErr == nil && p.ahead.Kind != TokEOF {
		p.ahead = p.scan()
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return p.file, nil
}

// parser reads the token stream with one token of lookahead.
type parser struct {
	lx     lexer
	cur    Token // the current token
	ahead  Token // the token after it
	lexErr error // the first lexical error; the stream ends there
	file   *File
}

// scan returns the lexer's next token, or TokEOF once it has failed.
func (p *parser) scan() Token {
	if p.lexErr == nil {
		t, err := p.lx.scan()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return Token{Kind: TokEOF, Line: p.lx.line, Col: p.lx.col}
}

func (p *parser) tok() Token { return p.cur }

// peek returns the token after the current one.
func (p *parser) peek() Token { return p.ahead }

func (p *parser) next() Token {
	t := p.cur
	p.cur, p.ahead = p.ahead, p.scan()
	return t
}

func (p *parser) errf(t Token, format string, args ...any) error {
	return &Error{t.Line, t.Col, fmt.Sprintf(format, args...)}
}

func (p *parser) at(kind TokenKind, text string) bool {
	t := p.tok()
	return t.Kind == kind && t.Text == text
}

func (p *parser) accept(kind TokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind TokenKind, text string) (Token, error) {
	t := p.tok()
	if t.Kind != kind || t.Text != text {
		return t, p.errf(t, "expected %q, found %q", text, t.Text)
	}
	p.next()
	return t, nil
}

func (p *parser) posOf(t Token) Pos { return Pos{t.Line, t.Col} }

// ---- Declarations ----

func (p *parser) parseFile() error {
	for p.tok().Kind != TokEOF {
		if err := p.parseTopDecl(); err != nil {
			return err
		}
	}
	return nil
}

func (p *parser) parseTopDecl() error {
	t := p.tok()
	if !p.isTypeStart() {
		return p.errf(t, "expected declaration, found %q", t.Text)
	}
	base, err := p.parseTypeSpec()
	if err != nil {
		return err
	}
	// "struct S { ... };" or "enum { ... };" alone.
	if p.accept(TokPunct, ";") {
		return nil
	}
	first := true
	for {
		name, typ, isFunc, params, err := p.parseDeclarator(base)
		if err != nil {
			return err
		}
		if isFunc {
			if !first {
				return p.errf(p.tok(), "function declarator in variable list")
			}
			fd := &FuncDecl{Pos: p.posOf(t), Name: name, Ret: typ, Params: params}
			if p.at(TokPunct, "{") {
				body, err := p.parseBlock()
				if err != nil {
					return err
				}
				fd.Body = body
				p.file.Funcs = append(p.file.Funcs, fd)
				return nil
			}
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return err
			}
			p.file.Funcs = append(p.file.Funcs, fd) // prototype
			return nil
		}
		vd := &VarDecl{Pos: p.posOf(t), Name: name, Type: typ}
		if p.accept(TokPunct, "=") {
			init, err := p.parseInitializer()
			if err != nil {
				return err
			}
			vd.Init = init
		}
		p.file.Globals = append(p.file.Globals, vd)
		first = false
		if p.accept(TokPunct, ",") {
			continue
		}
		_, err = p.expect(TokPunct, ";")
		return err
	}
}

func (p *parser) isTypeStart() bool {
	t := p.tok()
	if t.Kind != TokKeyword {
		return false
	}
	switch t.Text {
	case "void", "char", "short", "int", "long", "unsigned", "signed",
		"struct", "enum", "const", "static", "extern", "register":
		return true
	}
	return false
}

// parseTypeSpec parses qualifiers and a base type.
func (p *parser) parseTypeSpec() (*Type, error) {
	for p.at(TokKeyword, "const") || p.at(TokKeyword, "static") ||
		p.at(TokKeyword, "extern") || p.at(TokKeyword, "register") {
		p.next()
	}
	t := p.tok()
	switch {
	case p.accept(TokKeyword, "struct"):
		return p.parseStructType()
	case p.accept(TokKeyword, "enum"):
		return p.parseEnumType()
	}
	unsigned := false
	signed := false
	base := ""
	for {
		switch {
		case p.accept(TokKeyword, "unsigned"):
			unsigned = true
		case p.accept(TokKeyword, "signed"):
			signed = true
		case p.accept(TokKeyword, "const"):
		case p.at(TokKeyword, "void") || p.at(TokKeyword, "char") ||
			p.at(TokKeyword, "short") || p.at(TokKeyword, "int") || p.at(TokKeyword, "long"):
			if base != "" {
				// "short int", "long int" — fold the int.
				if p.tok().Text == "int" && (base == "short" || base == "long") {
					p.next()
					continue
				}
				return nil, p.errf(p.tok(), "unexpected type keyword %q", p.tok().Text)
			}
			base = p.next().Text
			continue
		default:
			goto done
		}
	}
done:
	if base == "" {
		if unsigned || signed {
			base = "int"
		} else {
			return nil, p.errf(t, "expected type")
		}
	}
	_ = signed
	switch base {
	case "void":
		return TypeVoid, nil
	case "char":
		if unsigned {
			return TypeUChar, nil
		}
		return TypeChar, nil
	case "short":
		if unsigned {
			return TypeUShort, nil
		}
		return TypeShort, nil
	case "int", "long":
		if unsigned {
			return TypeUInt, nil
		}
		return TypeInt, nil
	}
	return nil, p.errf(t, "unsupported type %q", base)
}

func (p *parser) parseStructType() (*Type, error) {
	nameTok := p.tok()
	name := ""
	if nameTok.Kind == TokIdent {
		name = p.next().Text
	}
	if !p.at(TokPunct, "{") {
		// Reference to a (possibly forward-declared) struct.
		if name == "" {
			return nil, p.errf(nameTok, "anonymous struct reference")
		}
		st, ok := p.file.Structs[name]
		if !ok {
			st = &StructType{Name: name}
			p.file.Structs[name] = st
		}
		return &Type{Kind: TStruct, Struct: st}, nil
	}
	p.next() // {
	st := p.file.Structs[name]
	if st == nil {
		st = &StructType{Name: name}
		if name != "" {
			p.file.Structs[name] = st
		}
	} else if len(st.Fields) > 0 {
		return nil, p.errf(nameTok, "redefinition of struct %s", name)
	}
	for !p.at(TokPunct, "}") {
		base, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		for {
			fname, ftyp, isFunc, _, err := p.parseDeclarator(base)
			if err != nil {
				return nil, err
			}
			if isFunc {
				return nil, p.errf(p.tok(), "function field in struct")
			}
			st.Fields = append(st.Fields, Field{Name: fname, Type: ftyp})
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
	}
	p.next() // }
	if err := st.Layout(); err != nil {
		return nil, p.errf(nameTok, "struct %s: %v", name, err)
	}
	return &Type{Kind: TStruct, Struct: st}, nil
}

func (p *parser) parseEnumType() (*Type, error) {
	if p.tok().Kind == TokIdent {
		p.next() // tag name, unused
	}
	if p.accept(TokPunct, "{") {
		next := int32(0)
		for !p.at(TokPunct, "}") {
			nameTok := p.tok()
			if nameTok.Kind != TokIdent {
				return nil, p.errf(nameTok, "expected enum constant name")
			}
			p.next()
			if p.accept(TokPunct, "=") {
				e, err := p.parseConditional()
				if err != nil {
					return nil, err
				}
				v, err := p.evalConst(e)
				if err != nil {
					return nil, err
				}
				next = v
			}
			p.file.EnumConsts[nameTok.Text] = next
			next++
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, "}"); err != nil {
			return nil, err
		}
	}
	return TypeInt, nil
}

// parseDeclarator parses '*'* (IDENT | '(' '*' IDENT ')' '(' params ')')
// ('[' const ']')*. It returns the declared name and full type; isFunc is
// true when the declarator is a function (name followed by a parameter
// list), in which case params holds the parameters and typ the return
// type.
func (p *parser) parseDeclarator(base *Type) (name string, typ *Type, isFunc bool, params []Param, err error) {
	typ = base
	for p.accept(TokPunct, "*") {
		for p.accept(TokKeyword, "const") {
		}
		typ = PtrTo(typ)
	}
	// Function pointer: ( * name ) ( params )
	if p.at(TokPunct, "(") && p.peek().Kind == TokPunct && p.peek().Text == "*" {
		p.next() // (
		p.next() // *
		nameTok := p.tok()
		if nameTok.Kind != TokIdent {
			return "", nil, false, nil, p.errf(nameTok, "expected function pointer name")
		}
		p.next()
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return "", nil, false, nil, err
		}
		if _, err := p.expect(TokPunct, "("); err != nil {
			return "", nil, false, nil, err
		}
		ps, err := p.parseParams()
		if err != nil {
			return "", nil, false, nil, err
		}
		sig := &Type{Kind: TFunc, Ret: typ}
		for _, pp := range ps {
			sig.Params = append(sig.Params, pp.Type)
		}
		return nameTok.Text, PtrTo(sig), false, nil, nil
	}
	nameTok := p.tok()
	if nameTok.Kind != TokIdent {
		return "", nil, false, nil, p.errf(nameTok, "expected identifier in declarator")
	}
	p.next()
	name = nameTok.Text
	if p.accept(TokPunct, "(") {
		ps, err := p.parseParams()
		if err != nil {
			return "", nil, false, nil, err
		}
		return name, typ, true, ps, nil
	}
	for p.accept(TokPunct, "[") {
		if p.accept(TokPunct, "]") {
			// Unsized arrays decay to pointers (parameters) — represent
			// directly as pointer.
			typ = PtrTo(typ)
			continue
		}
		e, err := p.parseConditional()
		if err != nil {
			return "", nil, false, nil, err
		}
		n, err := p.evalConst(e)
		if err != nil {
			return "", nil, false, nil, err
		}
		if n <= 0 {
			return "", nil, false, nil, p.errf(nameTok, "array size must be positive")
		}
		if _, err := p.expect(TokPunct, "]"); err != nil {
			return "", nil, false, nil, err
		}
		typ = wrapArray(typ, int(n))
	}
	return name, typ, false, nil, nil
}

// wrapArray appends an array dimension innermost-last so that
// int a[2][3] has type (int[3])[2].
func wrapArray(t *Type, n int) *Type {
	if t.Kind == TArray {
		return ArrayOf(wrapArray(t.Elem, n), t.ArrayLen)
	}
	return ArrayOf(t, n)
}

func (p *parser) parseParams() ([]Param, error) {
	var params []Param
	if p.accept(TokPunct, ")") {
		return params, nil
	}
	if p.at(TokKeyword, "void") && p.peek().Kind == TokPunct && p.peek().Text == ")" {
		p.next()
		p.next()
		return params, nil
	}
	for {
		base, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		// Parameter name is optional in prototypes; an anonymous
		// parameter is a bare type (possibly with '*'s).
		typ := base
		for p.accept(TokPunct, "*") {
			typ = PtrTo(typ)
		}
		name := ""
		if p.tok().Kind == TokIdent {
			name = p.next().Text
			for p.accept(TokPunct, "[") {
				// Array parameters decay to pointers.
				if !p.accept(TokPunct, "]") {
					if _, err := p.parseConditional(); err != nil {
						return nil, err
					}
					if _, err := p.expect(TokPunct, "]"); err != nil {
						return nil, err
					}
				}
				typ = PtrTo(typ)
			}
		} else if p.at(TokPunct, "(") && p.peek().Text == "*" {
			// Function-pointer parameter; typ already includes any leading
			// '*'s of the return type.
			n2, t2, _, _, err := p.parseDeclarator(typ)
			if err != nil {
				return nil, err
			}
			name, typ = n2, t2
		}
		if typ.Kind == TArray {
			typ = PtrTo(typ.Elem)
		}
		params = append(params, Param{Name: name, Type: typ})
		if p.accept(TokPunct, ",") {
			continue
		}
		_, err = p.expect(TokPunct, ")")
		return params, err
	}
}

func (p *parser) parseInitializer() (Expr, error) {
	if p.at(TokPunct, "{") {
		t := p.next()
		il := &InitList{Pos: p.posOf(t)}
		for !p.at(TokPunct, "}") {
			item, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			il.Items = append(il.Items, item)
			if !p.accept(TokPunct, ",") {
				break
			}
		}
		if _, err := p.expect(TokPunct, "}"); err != nil {
			return nil, err
		}
		return il, nil
	}
	return p.parseAssign()
}

// ---- Statements ----

func (p *parser) parseBlock() (*BlockStmt, error) {
	t, err := p.expect(TokPunct, "{")
	if err != nil {
		return nil, err
	}
	b := &BlockStmt{Pos: p.posOf(t)}
	for !p.at(TokPunct, "}") {
		if p.tok().Kind == TokEOF {
			return nil, p.errf(p.tok(), "unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	t := p.tok()
	switch {
	case p.at(TokPunct, "{"):
		return p.parseBlock()
	case p.at(TokPunct, ";"):
		p.next()
		return &EmptyStmt{Pos: p.posOf(t)}, nil
	case p.isTypeStart():
		return p.parseDeclStmt()
	case p.accept(TokKeyword, "if"):
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(TokKeyword, "else") {
			if els, err = p.parseStmt(); err != nil {
				return nil, err
			}
		}
		return &IfStmt{Pos: p.posOf(t), Cond: cond, Then: then, Else: els}, nil
	case p.accept(TokKeyword, "while"):
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Pos: p.posOf(t), Cond: cond, Body: body}, nil
	case p.accept(TokKeyword, "do"):
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokKeyword, "while"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, "("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &DoWhileStmt{Pos: p.posOf(t), Body: body, Cond: cond}, nil
	case p.accept(TokKeyword, "for"):
		return p.parseFor(t)
	case p.accept(TokKeyword, "return"):
		rs := &ReturnStmt{Pos: p.posOf(t)}
		if !p.at(TokPunct, ";") {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			rs.X = x
		}
		_, err := p.expect(TokPunct, ";")
		return rs, err
	case p.accept(TokKeyword, "break"):
		_, err := p.expect(TokPunct, ";")
		return &BreakStmt{Pos: p.posOf(t)}, err
	case p.accept(TokKeyword, "continue"):
		_, err := p.expect(TokPunct, ";")
		return &ContinueStmt{Pos: p.posOf(t)}, err
	case p.accept(TokKeyword, "switch"):
		return p.parseSwitch(t)
	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return &ExprStmt{Pos: p.posOf(t), X: x}, nil
	}
}

func (p *parser) parseDeclStmt() (Stmt, error) {
	t := p.tok()
	base, err := p.parseTypeSpec()
	if err != nil {
		return nil, err
	}
	ds := &DeclStmt{Pos: p.posOf(t)}
	if p.accept(TokPunct, ";") {
		return ds, nil // bare struct/enum definition in a block
	}
	for {
		name, typ, isFunc, _, err := p.parseDeclarator(base)
		if err != nil {
			return nil, err
		}
		if isFunc {
			return nil, p.errf(t, "nested function declarations are not supported")
		}
		vd := &VarDecl{Pos: p.posOf(t), Name: name, Type: typ}
		if p.accept(TokPunct, "=") {
			init, err := p.parseInitializer()
			if err != nil {
				return nil, err
			}
			vd.Init = init
		}
		ds.Decls = append(ds.Decls, vd)
		if p.accept(TokPunct, ",") {
			continue
		}
		if _, err := p.expect(TokPunct, ";"); err != nil {
			return nil, err
		}
		return ds, nil
	}
}

func (p *parser) parseFor(t Token) (Stmt, error) {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	fs := &ForStmt{Pos: p.posOf(t)}
	if !p.at(TokPunct, ";") {
		if p.isTypeStart() {
			init, err := p.parseDeclStmt()
			if err != nil {
				return nil, err
			}
			fs.Init = init
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			fs.Init = &ExprStmt{Pos: p.posOf(t), X: x}
			if _, err := p.expect(TokPunct, ";"); err != nil {
				return nil, err
			}
		}
	} else {
		p.next()
	}
	if !p.at(TokPunct, ";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Cond = cond
	}
	if _, err := p.expect(TokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(TokPunct, ")") {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		fs.Post = post
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	fs.Body = body
	return fs, nil
}

func (p *parser) parseSwitch(t Token) (Stmt, error) {
	if _, err := p.expect(TokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, ")"); err != nil {
		return nil, err
	}
	if _, err := p.expect(TokPunct, "{"); err != nil {
		return nil, err
	}
	sw := &SwitchStmt{Pos: p.posOf(t), Cond: cond}
	for !p.at(TokPunct, "}") {
		ct := p.tok()
		var sc SwitchCase
		sc.Pos = p.posOf(ct)
		switch {
		case p.accept(TokKeyword, "case"):
			for {
				e, err := p.parseConditional()
				if err != nil {
					return nil, err
				}
				sc.Labels = append(sc.Labels, e)
				if _, err := p.expect(TokPunct, ":"); err != nil {
					return nil, err
				}
				if !p.accept(TokKeyword, "case") {
					break
				}
			}
			if p.accept(TokKeyword, "default") {
				sc.IsDflt = true
				if _, err := p.expect(TokPunct, ":"); err != nil {
					return nil, err
				}
			}
		case p.accept(TokKeyword, "default"):
			sc.IsDflt = true
			if _, err := p.expect(TokPunct, ":"); err != nil {
				return nil, err
			}
			for p.accept(TokKeyword, "case") {
				e, err := p.parseConditional()
				if err != nil {
					return nil, err
				}
				sc.Labels = append(sc.Labels, e)
				if _, err := p.expect(TokPunct, ":"); err != nil {
					return nil, err
				}
			}
		default:
			return nil, p.errf(ct, "expected case or default in switch")
		}
		for !p.at(TokKeyword, "case") && !p.at(TokKeyword, "default") && !p.at(TokPunct, "}") {
			s, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			sc.Body = append(sc.Body, s)
		}
		sw.Cases = append(sw.Cases, sc)
	}
	p.next() // }
	return sw, nil
}

// ---- Expressions (precedence climbing) ----

func (p *parser) parseExpr() (Expr, error) {
	x, err := p.parseAssign()
	if err != nil {
		return nil, err
	}
	for p.at(TokPunct, ",") {
		t := p.next()
		y, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		x = &Binary{Pos: p.posOf(t), Op: ",", X: x, Y: y}
	}
	return x, nil
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true, "%=": true,
	"&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

func (p *parser) parseAssign() (Expr, error) {
	x, err := p.parseConditional()
	if err != nil {
		return nil, err
	}
	t := p.tok()
	if t.Kind == TokPunct && assignOps[t.Text] {
		p.next()
		rhs, err := p.parseAssign()
		if err != nil {
			return nil, err
		}
		return &Assign{Pos: p.posOf(t), Op: t.Text, LHS: x, RHS: rhs}, nil
	}
	return x, nil
}

func (p *parser) parseConditional() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.at(TokPunct, "?") {
		t := p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokPunct, ":"); err != nil {
			return nil, err
		}
		y, err := p.parseConditional()
		if err != nil {
			return nil, err
		}
		return &Cond{Pos: p.posOf(t), C: c, X: x, Y: y}, nil
	}
	return c, nil
}

// binary operator precedence levels, loosest first.
var binLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<", "<=", ">", ">="},
	{"<<", ">>"},
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *parser) parseBinary(level int) (Expr, error) {
	if level >= len(binLevels) {
		return p.parseUnary()
	}
	x, err := p.parseBinary(level + 1)
	if err != nil {
		return nil, err
	}
	for {
		t := p.tok()
		if t.Kind != TokPunct || !contains(binLevels[level], t.Text) {
			return x, nil
		}
		p.next()
		y, err := p.parseBinary(level + 1)
		if err != nil {
			return nil, err
		}
		x = &Binary{Pos: p.posOf(t), Op: t.Text, X: x, Y: y}
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.tok()
	if t.Kind == TokPunct {
		switch t.Text {
		case "-", "+", "!", "~", "*", "&":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Pos: p.posOf(t), Op: t.Text, X: x}, nil
		case "++", "--":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Unary{Pos: p.posOf(t), Op: t.Text, X: x}, nil
		case "(":
			// Cast or parenthesized expression.
			if p.peekIsType() {
				p.next() // (
				base, err := p.parseTypeSpec()
				if err != nil {
					return nil, err
				}
				typ := base
				for p.accept(TokPunct, "*") {
					typ = PtrTo(typ)
				}
				if _, err := p.expect(TokPunct, ")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &Cast{Pos: p.posOf(t), To: typ, X: x}, nil
			}
		}
	}
	if t.Kind == TokKeyword && t.Text == "sizeof" {
		p.next()
		if p.at(TokPunct, "(") && p.peekIsType() {
			p.next()
			base, err := p.parseTypeSpec()
			if err != nil {
				return nil, err
			}
			typ := base
			for p.accept(TokPunct, "*") {
				typ = PtrTo(typ)
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			return &SizeofType{Pos: p.posOf(t), T: typ}, nil
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &SizeofExpr{Pos: p.posOf(t), X: x}, nil
	}
	return p.parsePostfix()
}

// peekIsType reports whether the token after the current one begins a
// type.
func (p *parser) peekIsType() bool {
	t := p.peek()
	if t.Kind != TokKeyword {
		return false
	}
	switch t.Text {
	case "void", "char", "short", "int", "long", "unsigned", "signed",
		"struct", "enum", "const":
		return true
	}
	return false
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.tok()
		switch {
		case p.accept(TokPunct, "["):
			i, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(TokPunct, "]"); err != nil {
				return nil, err
			}
			x = &Index{Pos: p.posOf(t), X: x, I: i}
		case p.accept(TokPunct, "("):
			call := &Call{Pos: p.posOf(t), Fun: x}
			for !p.at(TokPunct, ")") {
				a, err := p.parseAssign()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
				if !p.accept(TokPunct, ",") {
					break
				}
			}
			if _, err := p.expect(TokPunct, ")"); err != nil {
				return nil, err
			}
			x = call
		case p.accept(TokPunct, "."):
			nt := p.tok()
			if nt.Kind != TokIdent {
				return nil, p.errf(nt, "expected field name")
			}
			p.next()
			x = &Member{Pos: p.posOf(t), X: x, Name: nt.Text}
		case p.accept(TokPunct, "->"):
			nt := p.tok()
			if nt.Kind != TokIdent {
				return nil, p.errf(nt, "expected field name")
			}
			p.next()
			x = &Member{Pos: p.posOf(t), X: x, Name: nt.Text, Arrow: true}
		case p.at(TokPunct, "++") || p.at(TokPunct, "--"):
			p.next()
			x = &Unary{Pos: p.posOf(t), Op: t.Text, X: x, Postfix: true}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.tok()
	switch t.Kind {
	case TokNumber:
		p.next()
		unsigned := false
		for _, c := range t.Text {
			if c == 'u' || c == 'U' {
				unsigned = true
			}
		}
		return &NumberLit{Pos: p.posOf(t), Val: t.Val, Unsigned: unsigned}, nil
	case TokChar:
		p.next()
		return &NumberLit{Pos: p.posOf(t), Val: t.Val}, nil
	case TokString:
		p.next()
		s := t.Str
		// Adjacent string literals concatenate.
		for p.tok().Kind == TokString {
			s += p.next().Str
		}
		return &StringLit{Pos: p.posOf(t), Val: s}, nil
	case TokIdent:
		p.next()
		return &Ident{Pos: p.posOf(t), Name: t.Text}, nil
	case TokPunct:
		if t.Text == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			_, err = p.expect(TokPunct, ")")
			return x, err
		}
	}
	return nil, p.errf(t, "unexpected token %q in expression", t.Text)
}

// evalConst evaluates a constant expression at parse time (array sizes,
// enum values, case labels).
func (p *parser) evalConst(e Expr) (int32, error) {
	switch x := e.(type) {
	case *NumberLit:
		return x.Val, nil
	case *Ident:
		if v, ok := p.file.EnumConsts[x.Name]; ok {
			return v, nil
		}
		return 0, &Error{x.Pos.Line, x.Pos.Col, fmt.Sprintf("%q is not a constant", x.Name)}
	case *Unary:
		v, err := p.evalConst(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "+":
			return v, nil
		case "~":
			return ^v, nil
		case "!":
			if v == 0 {
				return 1, nil
			}
			return 0, nil
		}
	case *Binary:
		a, err := p.evalConst(x.X)
		if err != nil {
			return 0, err
		}
		b, err := p.evalConst(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, &Error{x.Pos.Line, x.Pos.Col, "division by zero in constant"}
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, &Error{x.Pos.Line, x.Pos.Col, "division by zero in constant"}
			}
			return a % b, nil
		case "<<":
			return a << (uint32(b) & 31), nil
		case ">>":
			return a >> (uint32(b) & 31), nil
		case "&":
			return a & b, nil
		case "|":
			return a | b, nil
		case "^":
			return a ^ b, nil
		}
	case *SizeofType:
		return int32(x.T.Size()), nil
	case *Cast:
		return p.evalConst(x.X)
	}
	return 0, fmt.Errorf("minic: expression is not constant (%T)", e)
}

// EvalConstExpr exposes constant evaluation for the IR generator (case
// labels reference enum constants).
func (f *File) EvalConstExpr(e Expr) (int32, bool) {
	p := &parser{file: f}
	v, err := p.evalConst(e)
	if err != nil {
		return 0, false
	}
	return v, true
}
