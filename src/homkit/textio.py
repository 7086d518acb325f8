"""Parsing and serialization of structure and pattern-family files.

The format is brace-delimited with '#' comments:

    signature csig { E/2 C1/1 lift C2/1 lift }
    structure K2 : csig {
      universe = {a, b} ;
      E = {(a,b), (b,a)} ;
      C1 = {a, b}
    }
    family mono : csig {
      mode = plain ;
      lift_arity = 1 ;
      pattern P1 { universe = {x,y} ; E = {(x,y)} ; C1 = {x,y} ;
                   constraints { x != y } }
    }

Elements are renumbered 0..n-1 in declaration order; the declared names
survive as display metadata only.  Serialization is deterministic.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .errors import ParseError
from .patterns import PatternFamily
from .structures import Lift, Signature, Structure, _interned, classify_cover

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>\#[^\n]*)
      | (?P<neq>!=)
      | (?P<name>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<int>\d+)
      | (?P<punct>[{}(),;:/=!&])
    """,
    re.VERBOSE,
)


@dataclass
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    return tokens


class TokenStream:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            raise ParseError("unexpected end of input", last.line if last else 1, None)
        self.pos += 1
        return tok

    def expect(self, text):
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def expect_kind(self, kind):
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.text!r}", tok.line, tok.column)
        return tok

    def at(self, text):
        tok = self.peek()
        return tok is not None and tok.text == text


@dataclass
class Document:
    signatures: dict = field(default_factory=dict)
    structures: dict = field(default_factory=dict)
    lifts: dict = field(default_factory=dict)
    families: dict = field(default_factory=dict)
    order: list = field(default_factory=list)


def _parse_signature(ts: TokenStream) -> tuple[str, Signature]:
    name = ts.expect_kind("name").text
    ts.expect("{")
    symbols = []
    lift = []
    while not ts.at("}"):
        sym = ts.expect_kind("name").text
        ts.expect("/")
        arity_tok = ts.expect_kind("int")
        arity = int(arity_tok.text)
        if arity < 1:
            raise ParseError(f"symbol {sym} declared with arity {arity}", arity_tok.line, arity_tok.column)
        symbols.append((sym, arity))
        if ts.at("lift"):
            ts.next()
            lift.append(sym)
    ts.expect("}")
    return name, _interned(tuple(symbols), frozenset(lift))


def _parse_tuple(ts: TokenStream, elem_ids, tok_where):
    """A tuple '(a,b,...)' or a bare element name (unary shorthand)."""
    if ts.at("("):
        ts.next()
        coords = []
        while True:
            tok = ts.expect_kind("name")
            if tok.text not in elem_ids:
                raise ParseError(f"element {tok.text!r} not in universe", tok.line, tok.column)
            coords.append(elem_ids[tok.text])
            if ts.at(","):
                ts.next()
                continue
            break
        ts.expect(")")
        return tuple(coords)
    tok = ts.expect_kind("name")
    if tok.text not in elem_ids:
        raise ParseError(f"element {tok.text!r} not in universe", tok.line, tok.column)
    return (elem_ids[tok.text],)


def _parse_body(ts: TokenStream, sig: Signature, allow_constraints=False):
    """universe and relation clauses inside braces; returns Structure pieces."""
    ts.expect("{")
    names = []
    elem_ids = {}
    rels = {}
    noncollapse = set()
    free = set()
    saw_universe = False
    while not ts.at("}"):
        if ts.at(";"):
            ts.next()
            continue
        key = ts.expect_kind("name")
        if key.text == "universe":
            ts.expect("=")
            ts.expect("{")
            while not ts.at("}"):
                tok = ts.expect_kind("name")
                if tok.text in elem_ids:
                    raise ParseError(f"duplicate element {tok.text!r}", tok.line, tok.column)
                elem_ids[tok.text] = len(names)
                names.append(tok.text)
                if ts.at(","):
                    ts.next()
            ts.expect("}")
            saw_universe = True
        elif allow_constraints and key.text == "constraints":
            ts.expect("{")
            while not ts.at("}"):
                if ts.at(";"):
                    ts.next()
                    continue
                if ts.at("tuple"):
                    ts.next()
                    sym = ts.expect_kind("name")
                    if sym.text not in sig.names:
                        raise ParseError(f"unknown symbol {sym.text!r}", sym.line, sym.column)
                    t = _parse_tuple(ts, elem_ids, sym)
                    if len(t) != sig.arity(sym.text):
                        raise ParseError(
                            f"{sym.text}-tuple of arity {len(t)}, expected {sig.arity(sym.text)}",
                            sym.line, sym.column,
                        )
                    ts.expect("free")
                    free.add((sym.text, t))
                else:
                    x = ts.expect_kind("name")
                    if x.text not in elem_ids:
                        raise ParseError(f"element {x.text!r} not in universe", x.line, x.column)
                    ts.expect("!=")
                    y = ts.expect_kind("name")
                    if y.text not in elem_ids:
                        raise ParseError(f"element {y.text!r} not in universe", y.line, y.column)
                    if x.text == y.text:
                        raise ParseError(f"constraint {x.text} != {x.text} can never hold", x.line, x.column)
                    noncollapse.add(tuple(sorted((elem_ids[x.text], elem_ids[y.text]))))
            ts.expect("}")
        else:
            if key.text not in sig.names:
                raise ParseError(f"unknown symbol {key.text!r}", key.line, key.column)
            arity = sig.arity(key.text)
            ts.expect("=")
            ts.expect("{")
            tuples = set()
            while not ts.at("}"):
                t = _parse_tuple(ts, elem_ids, key)
                if len(t) != arity:
                    raise ParseError(
                        f"{key.text}-tuple of arity {len(t)}, expected {arity}", key.line, key.column
                    )
                tuples.add(t)
                if ts.at(","):
                    ts.next()
            ts.expect("}")
            rels[key.text] = rels.get(key.text, set()) | tuples
    ts.expect("}")
    if not saw_universe:
        tok = ts.peek()
        raise ParseError("missing universe clause", tok.line if tok else 1, None)
    return names, rels, frozenset(noncollapse), frozenset(free)


def parse_document(text: str) -> Document:
    ts = TokenStream(tokenize(text))
    doc = Document()
    while ts.peek() is not None:
        tok = ts.next()
        if tok.text == "signature":
            name, sig = _parse_signature(ts)
            doc.signatures[name] = sig
            doc.order.append(("signature", name))
        elif tok.text in ("structure", "lift"):
            kind = tok.text
            name = ts.expect_kind("name").text
            ts.expect(":")
            signame = ts.expect_kind("name")
            if signame.text not in doc.signatures:
                raise ParseError(f"unknown signature {signame.text!r}", signame.line, signame.column)
            sig = doc.signatures[signame.text]
            names, rels, noncollapse, free = _parse_body(ts, sig, allow_constraints=(kind == "lift"))
            struct = Structure(sig, len(names), rels, names)
            if kind == "structure":
                doc.structures[name] = struct
                doc.order.append(("structure", name))
            else:
                r = max((ar for _, ar in sig.lift_symbols()), default=None)
                cover = classify_cover(struct, r) if r else "none"
                doc.lifts[name] = Lift(struct, r, cover, noncollapse, free)
                doc.order.append(("lift", name))
        elif tok.text == "family":
            name = ts.expect_kind("name").text
            ts.expect(":")
            signame = ts.expect_kind("name")
            if signame.text not in doc.signatures:
                raise ParseError(f"unknown signature {signame.text!r}", signame.line, signame.column)
            sig = doc.signatures[signame.text]
            if not sig.lift_names:
                raise ParseError("family signature needs lift symbols", signame.line, signame.column)
            ts.expect("{")
            mode_tag = "plain"
            lift_arity = max(ar for _, ar in sig.lift_symbols())
            patterns = []
            while not ts.at("}"):
                if ts.at(";"):
                    ts.next()
                    continue
                key = ts.expect_kind("name")
                if key.text == "mode":
                    ts.expect("=")
                    mode_tok = ts.expect_kind("name")
                    if mode_tok.text not in ("plain", "injective", "full"):
                        raise ParseError(f"unknown mode {mode_tok.text!r}", mode_tok.line, mode_tok.column)
                    mode_tag = mode_tok.text
                elif key.text == "lift_arity":
                    ts.expect("=")
                    lift_arity = int(ts.expect_kind("int").text)
                elif key.text == "pattern":
                    pname = ts.expect_kind("name").text
                    names, rels, noncollapse, free = _parse_body(ts, sig, allow_constraints=True)
                    struct = Structure(sig, len(names), rels, names)
                    cover = classify_cover(struct, lift_arity)
                    patterns.append(Lift(struct, lift_arity, cover, noncollapse, free))
                else:
                    raise ParseError(f"unexpected {key.text!r} in family block", key.line, key.column)
            ts.expect("}")
            doc.families[name] = PatternFamily(sig, tuple(patterns), mode_tag, lift_arity)
            doc.order.append(("family", name))
        else:
            raise ParseError(f"expected a declaration, found {tok.text!r}", tok.line, tok.column)
    return doc


def parse_structure(text: str) -> Structure:
    """The first structure declared in the document."""
    doc = parse_document(text)
    if not doc.structures:
        raise ParseError("document declares no structure", 1, None)
    first = next(name for kind, name in doc.order if kind == "structure")
    return doc.structures[first]


def parse_family(text: str) -> PatternFamily:
    doc = parse_document(text)
    if not doc.families:
        raise ParseError("document declares no family", 1, None)
    first = next(name for kind, name in doc.order if kind == "family")
    return doc.families[first]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _element_names(struct: Structure):
    used = set()
    names = []
    for i in range(struct.n):
        base = struct.element_names[i] if struct.element_names and i < len(struct.element_names) else f"a{i}"
        name = base
        k = 1
        while name in used or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_']*", name):
            name = f"a{i}" if k == 1 else f"a{i}_{k}"
            k += 1
        used.add(name)
        names.append(name)
    return names


def serialize_signature(sig: Signature, name: str = "sig") -> str:
    parts = []
    for sym, ar in sig.symbols:
        parts.append(f"{sym}/{ar}" + (" lift" if sym in sig.lift_names else ""))
    return f"signature {name} {{ " + " ".join(parts) + " }"


def _body_lines(struct: Structure, names, noncollapse=(), free=()):
    lines = [f"  universe = {{{', '.join(names)}}} ;"]
    for (sym, _), r in zip(struct.sig.symbols, struct.rels):
        items = ", ".join("(" + ",".join(names[x] for x in t) + ")" for t in sorted(r))
        lines.append(f"  {sym} = {{{items}}} ;")
    if noncollapse or free:
        bits = [f"{names[x]} != {names[y]}" for x, y in sorted(noncollapse)]
        bits += [
            f"tuple {sym}(" + ",".join(names[x] for x in t) + ") free" for sym, t in sorted(free)
        ]
        lines.append("  constraints { " + " ; ".join(bits) + " } ;")
    return lines


def serialize_structure(struct: Structure, name: str = "S", signame: str = "sig") -> str:
    names = _element_names(struct)
    lines = [serialize_signature(struct.sig, signame), f"structure {name} : {signame} {{"]
    lines += _body_lines(struct, names)
    lines.append("}")
    return "\n".join(lines) + "\n"


def serialize_family(fam: PatternFamily, name: str = "F", signame: str = "sig") -> str:
    """The family as text that `parse_family` reads back to the same language.

    A pattern with a noncollapse pair (x, x) admits no occurrence and so
    forbids nothing; the parser refuses `x != x`, so such a pattern is left
    out.
    """
    lines = [serialize_signature(fam.sig, signame), f"family {name} : {signame} {{"]
    lines.append(f"  mode = {fam.mode_tag} ;")
    lines.append(f"  lift_arity = {fam.lift_arity} ;")
    kept = [pat for pat in fam.patterns if all(x != y for x, y in pat.noncollapse)]
    for i, pat in enumerate(kept):
        names = _element_names(pat.struct)
        lines.append(f"  pattern P{i} {{")
        lines += ["  " + ln for ln in _body_lines(pat.struct, names, pat.noncollapse, pat.free_tuples)]
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
