package rdf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"unicode/utf8"

	"repro/internal/term"
)

// ParseError describes a syntax error in N-Triples input.
type ParseError struct {
	Line int
	Col  int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("ntriples: line %d col %d: %s", e.Line, e.Col, e.Msg)
}

// NTriplesDecoder streams triples out of an N-Triples document one
// line at a time, holding only the current line in memory — the way
// rdfserved and the CLIs ingest large dumps with bounded memory.
//
// Three output forms are available: Next materializes a string Triple
// per line, while NextID parses directly off the scanner's byte buffer
// and interns each term into a dictionary — zero string allocation for
// terms the dictionary has already seen, which in steady-state
// ingestion is nearly all of them (subjects repeat across their
// triples, predicates and common objects repeat across the dump).
// NextSP is NextID without the object: the batch CLIs read only
// (subject, predicate) presence, so their dictionary never holds
// objects.
type NTriplesDecoder struct {
	sc      *bufio.Scanner
	line    int
	scratch []byte // literal-unescape buffer reused across NextID calls

	// Per-slot one-entry memos for NextID: real dumps are grouped by
	// subject (and often by predicate within a subject), so the
	// previous line's terms very frequently recur verbatim — a byte
	// compare then skips the dictionary probe entirely.
	memoDict           *term.Dict
	subjMemo, predMemo termMemo
	objMemo            termMemo
	objMemoKind        TermKind
}

// termMemo caches one token -> ID association.
type termMemo struct {
	bytes []byte
	id    term.ID
	ok    bool
}

func (m *termMemo) intern(tok []byte, dict *term.Dict) term.ID {
	if m.ok && bytes.Equal(m.bytes, tok) {
		return m.id
	}
	m.id = dict.InternBytes(tok)
	m.bytes = append(m.bytes[:0], tok...)
	m.ok = true
	return m.id
}

// NewNTriplesDecoder returns a decoder reading from r.
func NewNTriplesDecoder(r io.Reader) *NTriplesDecoder {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &NTriplesDecoder{sc: sc}
}

// Next returns the next triple. Blank and comment-only lines are
// skipped. At end of input it returns io.EOF.
func (d *NTriplesDecoder) Next() (Triple, error) {
	for d.sc.Scan() {
		d.line++
		t, ok, err := ParseNTriplesLine(d.sc.Text(), d.line)
		if err != nil {
			return Triple{}, err
		}
		if ok {
			return t, nil
		}
	}
	if err := d.sc.Err(); err != nil {
		return Triple{}, fmt.Errorf("ntriples: read: %w", err)
	}
	return Triple{}, io.EOF
}

// NextID returns the next triple in interned form, interning terms
// into dict zero-copy from the scanner's buffer: the term bytes are
// only copied into a string when the dictionary has never seen them.
// At end of input it returns io.EOF.
func (d *NTriplesDecoder) NextID(dict *term.Dict) (IDTriple, error) {
	rt, err := d.nextRaw(dict)
	if err != nil {
		return IDTriple{}, err
	}
	it := IDTriple{
		S:     d.subjMemo.intern(rt.subj, dict),
		P:     d.predMemo.intern(rt.pred, dict),
		OKind: rt.objKind,
	}
	if d.objMemoKind != rt.objKind {
		d.objMemo.ok = false
		d.objMemoKind = rt.objKind
	}
	it.O = d.objMemo.intern(rt.obj, dict)
	return it, nil
}

// NextSP is NextID for readers that need only which (subject,
// predicate) cells are set: it parses and validates the line exactly
// as NextID does and interns the subject and predicate, but never
// interns the object. It returns the object's kind and its bytes
// (unescaped for literals), which view the decoder's buffers and are
// valid only until the next call. At end of input it returns io.EOF.
func (d *NTriplesDecoder) NextSP(dict *term.Dict) (s, p term.ID, kind TermKind, obj []byte, err error) {
	rt, err := d.nextRaw(dict)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	return d.subjMemo.intern(rt.subj, dict), d.predMemo.intern(rt.pred, dict), rt.objKind, rt.obj, nil
}

// nextRaw parses the next non-blank, non-comment line into views of the
// scanner's buffer, resetting the term memos when dict changes.
func (d *NTriplesDecoder) nextRaw(dict *term.Dict) (rawTriple[[]byte], error) {
	if d.memoDict != dict {
		d.memoDict = dict
		d.subjMemo.ok, d.predMemo.ok, d.objMemo.ok = false, false, false
	}
	for d.sc.Scan() {
		d.line++
		p := &lineParser[[]byte]{s: d.sc.Bytes(), line: d.line, scratch: d.scratch[:0]}
		rt, ok, err := parseLine(p)
		d.scratch = p.scratch
		if err != nil || ok {
			return rt, err
		}
	}
	if err := d.sc.Err(); err != nil {
		return rawTriple[[]byte]{}, fmt.Errorf("ntriples: read: %w", err)
	}
	return rawTriple[[]byte]{}, io.EOF
}

// Line returns the number of the last line consumed (1-based).
func (d *NTriplesDecoder) Line() int { return d.line }

// ReadNTriples streams N-Triples from r, calling emit for every triple
// in document order. Memory use is bounded by the longest line. It
// supports the core grammar the paper's datasets need: URI
// subjects/predicates, URI or literal objects (with language tags and
// datatype annotations, which are parsed and discarded since the
// property-structure view only records presence), comments (#) and
// blank lines. Blank nodes are accepted in subject/object position and
// treated as URIs with a _: prefix.
func ReadNTriples(r io.Reader, emit func(Triple) error) error {
	d := NewNTriplesDecoder(r)
	for {
		t, err := d.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := emit(t); err != nil {
			return err
		}
	}
}

// ReadNTriplesIDs streams N-Triples from r in interned form, interning
// every term into dict. See NextID for the allocation profile.
func ReadNTriplesIDs(r io.Reader, dict *term.Dict, emit func(IDTriple) error) error {
	d := NewNTriplesDecoder(r)
	for {
		it, err := d.NextID(dict)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := emit(it); err != nil {
			return err
		}
	}
}

// ParseNTriples reads N-Triples from r into a new graph, through the
// interned fast path. See ReadNTriples for the supported grammar.
func ParseNTriples(r io.Reader) (*Graph, error) {
	g := NewGraph()
	if err := ReadNTriplesIDs(r, g.Dict(), func(it IDTriple) error { g.AddID(it); return nil }); err != nil {
		return nil, err
	}
	return g, nil
}

// ParseNTriplesLine parses a single N-Triples line. ok is false for
// blank and comment-only lines. The returned triple's strings are
// substrings of line where the grammar allows (unescaped terms).
func ParseNTriplesLine(line string, lineNo int) (t Triple, ok bool, err error) {
	p := &lineParser[string]{s: line, line: lineNo}
	rt, ok, err := parseLine(p)
	if !ok || err != nil {
		return Triple{}, false, err
	}
	return Triple{
		Subject:   rt.subj,
		Predicate: rt.pred,
		Object:    Term{Kind: rt.objKind, Value: rt.obj},
	}, true, nil
}

// byteseq abstracts the parser input so one implementation serves both
// the string API (substring results, no input copy) and the interning
// decoder (byte-slice results straight off the read buffer).
type byteseq interface{ ~string | ~[]byte }

// rawTriple is a parsed line before term materialization: each field
// views the input (or the parser's scratch buffer, for literals with
// escapes).
type rawTriple[S byteseq] struct {
	subj, pred S
	obj        S
	objKind    TermKind
}

type lineParser[S byteseq] struct {
	s       S
	i       int
	line    int
	scratch []byte // unescape buffer; only grown when a literal has escapes
}

func (p *lineParser[S]) eof() bool  { return p.i >= len(p.s) }
func (p *lineParser[S]) peek() byte { return p.s[p.i] }
func (p *lineParser[S]) errf(format string, args ...interface{}) error {
	return &ParseError{Line: p.line, Col: p.i + 1, Msg: fmt.Sprintf(format, args...)}
}

func (p *lineParser[S]) skipWS() {
	for !p.eof() && (p.peek() == ' ' || p.peek() == '\t') {
		p.i++
	}
}

// parseLine parses one N-Triples line into views of the input. ok is
// false for blank and comment-only lines.
func parseLine[S byteseq](p *lineParser[S]) (rt rawTriple[S], ok bool, err error) {
	p.skipWS()
	if p.eof() || p.peek() == '#' {
		return rt, false, nil
	}
	rt.subj, err = p.parseResource()
	if err != nil {
		return rt, false, err
	}
	p.skipWS()
	rt.pred, err = p.parseURI()
	if err != nil {
		return rt, false, err
	}
	p.skipWS()
	rt.obj, rt.objKind, err = p.parseObject()
	if err != nil {
		return rt, false, err
	}
	p.skipWS()
	if p.eof() || p.peek() != '.' {
		return rt, false, p.errf("expected '.' terminator")
	}
	p.i++
	p.skipWS()
	if !p.eof() && p.peek() != '#' {
		return rt, false, p.errf("unexpected trailing content %q", string(p.s[p.i:]))
	}
	return rt, true, nil
}

// parseResource parses a URI or a blank node label.
func (p *lineParser[S]) parseResource() (S, error) {
	var zero S
	if p.eof() {
		return zero, p.errf("unexpected end of line, expected URI or blank node")
	}
	if p.peek() == '_' {
		return p.parseBlankNode()
	}
	return p.parseURI()
}

func (p *lineParser[S]) parseBlankNode() (S, error) {
	var zero S
	start := p.i
	if p.i+1 >= len(p.s) || p.s[p.i+1] != ':' {
		return zero, p.errf("malformed blank node")
	}
	p.i += 2
	for !p.eof() && p.peek() != ' ' && p.peek() != '\t' {
		p.i++
	}
	if p.i == start+2 {
		return zero, p.errf("empty blank node label")
	}
	return p.s[start:p.i], nil
}

func (p *lineParser[S]) parseURI() (S, error) {
	var zero S
	if p.eof() || p.peek() != '<' {
		return zero, p.errf("expected '<'")
	}
	p.i++
	start := p.i
	for !p.eof() && p.peek() != '>' {
		if p.peek() == ' ' {
			return zero, p.errf("space inside URI")
		}
		p.i++
	}
	if p.eof() {
		return zero, p.errf("unterminated URI")
	}
	u := p.s[start:p.i]
	p.i++
	if len(u) == 0 {
		return zero, p.errf("empty URI")
	}
	return u, nil
}

func (p *lineParser[S]) parseObject() (S, TermKind, error) {
	var zero S
	if p.eof() {
		return zero, URI, p.errf("unexpected end of line, expected object")
	}
	switch p.peek() {
	case '<':
		u, err := p.parseURI()
		return u, URI, err
	case '_':
		b, err := p.parseBlankNode()
		return b, URI, err
	case '"':
		v, err := p.parseLiteral()
		return v, Literal, err
	}
	return zero, URI, p.errf("expected URI, blank node or literal, got %q", p.peek())
}

// parseLiteral parses a quoted literal. When the literal contains no
// escape sequences the result views the input directly; otherwise the
// unescaped value is built in the parser's scratch buffer (reused
// across lines by the interning decoder).
func (p *lineParser[S]) parseLiteral() (S, error) {
	var zero S
	p.i++ // consume opening quote
	start := p.i
	escaped := false
	for {
		if p.eof() {
			return zero, p.errf("unterminated literal")
		}
		c := p.peek()
		if c == '"' {
			break
		}
		if c == '\\' {
			if !escaped {
				// First escape: switch to the scratch buffer, seeded with
				// the literal prefix scanned so far.
				escaped = true
				p.scratch = append(p.scratch[:0], p.s[start:p.i]...)
			}
			p.i++
			if p.eof() {
				return zero, p.errf("dangling escape")
			}
			esc := p.peek()
			p.i++
			switch esc {
			case 't':
				p.scratch = append(p.scratch, '\t')
			case 'n':
				p.scratch = append(p.scratch, '\n')
			case 'r':
				p.scratch = append(p.scratch, '\r')
			case '"':
				p.scratch = append(p.scratch, '"')
			case '\\':
				p.scratch = append(p.scratch, '\\')
			case 'u', 'U':
				n := 4
				if esc == 'U' {
					n = 8
				}
				if p.i+n > len(p.s) {
					return zero, p.errf("truncated \\%c escape", esc)
				}
				var r rune
				for j := 0; j < n; j++ {
					d := hexVal(p.s[p.i+j])
					if d < 0 {
						return zero, p.errf("bad hex digit in \\%c escape", esc)
					}
					r = r<<4 | rune(d)
				}
				p.i += n
				if !utf8.ValidRune(r) {
					return zero, p.errf("invalid code point in escape")
				}
				p.scratch = utf8.AppendRune(p.scratch, r)
			default:
				return zero, p.errf("unknown escape \\%c", esc)
			}
			continue
		}
		if escaped {
			p.scratch = append(p.scratch, c)
		}
		p.i++
	}
	var value S
	if escaped {
		value = S(p.scratch)
	} else {
		value = p.s[start:p.i]
	}
	p.i++ // consume closing quote
	// Optional language tag or datatype; presence-only semantics, so the
	// annotation is validated and discarded.
	if !p.eof() && p.peek() == '@' {
		p.i++
		start := p.i
		for !p.eof() && p.peek() != ' ' && p.peek() != '\t' && p.peek() != '.' {
			p.i++
		}
		if p.i == start {
			return zero, p.errf("empty language tag")
		}
	} else if p.i+1 < len(p.s) && p.s[p.i] == '^' && p.s[p.i+1] == '^' {
		p.i += 2
		if _, err := p.parseURI(); err != nil {
			return zero, err
		}
	}
	return value, nil
}

func hexVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}

// WriteNTriples serializes the graph to w in N-Triples syntax, one
// triple per line, in insertion order.
func WriteNTriples(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	for i, it := range g.triples {
		if _, gone := g.dead[int32(i)]; gone {
			continue
		}
		// Materialize one triple at a time and stop at the first write
		// error instead of draining the whole graph.
		if _, err := bw.WriteString(g.materialize(it).String()); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}
