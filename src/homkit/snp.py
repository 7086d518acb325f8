"""SNP formulas: parsing, model checking, normalization, pattern translation.

A formula is an existential second-order prefix (the proof relations)
over a universal first-order conjunction of negated clauses; each clause
splits into input atoms, proof atoms, and inequalities.  Clause variables
are scoped per clause.  Model checking is exact: each clause compiles
once into a shadow, and `eval_snp` walks the clause shadows with
`hom_maps` through the membership walkers, one search per shadow shared
by clauses with the same inequalities and negated input atoms, each
occurrence forbidding its proof part over the proof bits.  The proof
bits are decided by `patterns._decide_space`, on the route of
`fp_membership`.  The translations read clauses as evaluation does.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .errors import GuardExceededError, ParseError, SignatureMismatchError
from .homs import _set_partitions
from .patterns import PatternFamily, _build_templates, _decide_space, _dedup_lifts, _group_programs
from .structures import HomMode, Lift, Signature, Structure, _interned
from .textio import TokenStream, tokenize

PRIMITIVIZE_CAP = 1 << 14
EVAL_BITS_CAP = 20


@dataclass(frozen=True)
class Atom:
    symbol: str
    args: tuple
    positive: bool = True

    def substitute(self, mapping) -> "Atom":
        return Atom(self.symbol, tuple(mapping.get(v, v) for v in self.args), self.positive)

    def render(self) -> str:
        return ("" if self.positive else "!") + f"{self.symbol}({','.join(self.args)})"


@dataclass(frozen=True)
class Clause:
    variables: tuple
    alpha: tuple  # input atoms
    beta: tuple  # proof atoms
    epsilon: tuple  # pairs (x, y) meaning x != y

    def key(self):
        return (
            frozenset(self.alpha),
            frozenset(self.beta),
            frozenset(frozenset(p) for p in self.epsilon),
        )


@dataclass(frozen=True)
class SNPFormula:
    input_sig: Signature
    proof: tuple  # ((name, arity), ...)
    clauses: tuple

    def __hash__(self):
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        """The dataclass hash of the fields, computed once, as for `PatternFamily`."""
        return hash((self.input_sig, self.proof, self.clauses))

    def __reduce__(self):
        """Rebuilt from the fields alone, as for `PatternFamily`."""
        return SNPFormula, (self.input_sig, self.proof, self.clauses)

    @functools.cached_property
    def _arities(self) -> tuple:
        return tuple(arity for _, arity in self.proof)

    @functools.cached_property
    def _compiled(self):
        """Occurrence programs of the clauses that can fire, built on first use.

        A clause's shadow has its variables as elements and its positive
        input atoms as tuples; its inequalities are noncollapse pairs, its
        negated input atoms absent slots, and each proof atom a cell
        (tuple of variable indices, proof symbol index, polarity as 0 or 1).
        Space i holds the proof bits of the i-th proof symbol, with two
        values each.  Programs are grouped as `patterns._group_programs`
        describes.
        """
        pidx = {name: i for i, (name, _) in enumerate(self.proof)}
        out = []
        for c in self.clauses:
            read = _read_clause(c)
            if read is None:
                continue
            var_ix, held, absent, noncollapse = read
            sh = Structure(self.input_sig, len(c.variables), held, c.variables)
            absent = frozenset((self.input_sig.index(sym), t) for sym, t in absent)
            cells = tuple((tuple(var_ix[v] for v in at.args), pidx[at.symbol], int(at.positive)) for at in c.beta)
            out.append((sh, HomMode("plain", noncollapse), absent, cells))
        return _group_programs(out, (2,) * len(self.proof))


@dataclass(frozen=True)
class RestrictionReport:
    monotone: bool
    monadic: bool
    no_inequality: bool


def restriction_report(phi: SNPFormula) -> RestrictionReport:
    monotone = all(at.positive for c in phi.clauses for at in c.alpha)
    monadic = all(a == 1 for _, a in phi.proof)
    no_inequality = all(not c.epsilon for c in phi.clauses)
    return RestrictionReport(monotone, monadic, no_inequality)


# ---------------------------------------------------------------------------
# parsing and printing
# ---------------------------------------------------------------------------

def parse_snp(text: str) -> SNPFormula:
    """Parse `snp name { input {..} proof {..} clause NOT( .. ) ; .. }`."""
    ts = TokenStream(tokenize(text))
    ts.expect("snp")
    ts.expect_kind("name")
    ts.expect("{")
    decls = {}
    for block in ("input", "proof"):
        ts.expect(block)
        ts.expect("{")
        decls[block] = []
        while not ts.at("}"):
            sym = ts.expect_kind("name").text
            ts.expect("/")
            decls[block].append((sym, int(ts.expect_kind("int").text)))
        ts.expect("}")
    input_syms, proof = decls["input"], tuple(decls["proof"])
    sig = _interned(tuple(input_syms))
    pnames = {n for n, _ in proof}
    arities = dict(input_syms) | dict(proof)
    if len(arities) != len(input_syms) + len(proof):
        raise ParseError("input and proof symbols overlap", 1, None)

    clauses = []
    while not ts.at("}"):
        tok = ts.expect("clause")
        ts.expect("NOT")
        ts.expect("(")
        alpha, beta, eps = [], [], []
        variables = []

        def note_var(v):
            if v not in variables:
                variables.append(v)

        while not ts.at(")"):
            if ts.at("&"):
                ts.next()
                continue
            negative = False
            if ts.at("!"):
                ts.next()
                negative = True
            head = ts.expect_kind("name")
            if ts.at("!="):
                if negative:
                    raise ParseError("negated inequality is not part of the clause grammar", head.line, head.column)
                ts.next()
                other = ts.expect_kind("name")
                note_var(head.text)
                note_var(other.text)
                if head.text == other.text:
                    raise ParseError(f"inequality {head.text} != {head.text} is vacuous", head.line, head.column)
                eps.append((head.text, other.text))
                continue
            if head.text not in arities:
                raise ParseError(f"unknown symbol {head.text!r}", head.line, head.column)
            ts.expect("(")
            args = []
            while True:
                var = ts.expect_kind("name")
                args.append(var.text)
                note_var(var.text)
                if ts.at(","):
                    ts.next()
                    continue
                break
            ts.expect(")")
            if len(args) != arities[head.text]:
                raise ParseError(
                    f"{head.text} takes {arities[head.text]} arguments, got {len(args)}",
                    head.line, head.column,
                )
            atom = Atom(head.text, tuple(args), not negative)
            (beta if head.text in pnames else alpha).append(atom)
        ts.expect(")")
        if ts.at(";"):
            ts.next()
        if not variables:
            raise ParseError("empty clause", tok.line, tok.column)
        clauses.append(Clause(tuple(variables), tuple(alpha), tuple(beta), tuple(eps)))
    ts.expect("}")
    return SNPFormula(sig, proof, tuple(clauses))


def serialize_snp(phi: SNPFormula, name: str = "phi") -> str:
    lines = [f"snp {name} {{"]
    lines.append("  input { " + " ".join(f"{s}/{a}" for s, a in phi.input_sig.symbols) + " }")
    lines.append("  proof { " + " ".join(f"{s}/{a}" for s, a in phi.proof) + " }")
    for c in phi.clauses:
        bits = [a.render() for a in c.alpha] + [a.render() for a in c.beta]
        bits += [f"{x} != {y}" for x, y in c.epsilon]
        lines.append("  clause NOT( " + " & ".join(bits) + " ) ;")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# model checking
# ---------------------------------------------------------------------------

def _read_clause(c: Clause):
    """(variable index, held input tuples by symbol, absent input slots,
    noncollapse pairs), or None if the clause asks for a proof atom with
    both polarities, an input slot both present and absent, or x != x.
    """
    if _beta_contradictory(c.beta) or any(x == y for x, y in c.epsilon):
        return None
    var_ix = {v: i for i, v in enumerate(c.variables)}
    held = {}
    absent = set()
    for at in c.alpha:
        t = tuple(var_ix[v] for v in at.args)
        if at.positive:
            held.setdefault(at.symbol, set()).add(t)
        else:
            absent.add((at.symbol, t))
    if any((sym, t) in absent for sym, tps in held.items() for t in tps):
        return None
    noncollapse = frozenset(tuple(sorted((var_ix[x], var_ix[y]))) for x, y in c.epsilon)
    return var_ix, held, absent, noncollapse


def eval_snp(phi: SNPFormula, a: Structure, bits_cap: int = EVAL_BITS_CAP):
    """Does some choice of proof relations satisfy every clause on `a`?

    One proof bit per tuple of each proof symbol, the symbols one after the
    other, decided as `patterns._decide_space` decides a colouring space
    with two values, the templates being `_formula_templates`.
    """
    if a.sig is not phi.input_sig and a.sig != phi.input_sig:
        raise SignatureMismatchError("structure signature differs from the formula's input part")
    arities = phi._arities
    bits = sum(map(a.n.__pow__, arities))
    return _decide_space(phi, _formula_templates, a, arities, bits, 2, bits_cap, witness=False) is not None


def _formula_templates(phi: SNPFormula):
    """The templates of `patterns._build_templates` for `to_lifts_general(phi)`, or None.

    Only monotone, inequality-free formulas with monadic proof symbols
    translate to a family that can have them; None also when the
    translation exceeds its cap.
    """
    rep = restriction_report(phi)
    if not (rep.monotone and rep.monadic and rep.no_inequality):
        return None
    try:
        fam = to_lifts_general(phi)
    except GuardExceededError:
        return None
    return _build_templates(fam)


# ---------------------------------------------------------------------------
# normalization passes
# ---------------------------------------------------------------------------

def _dedup_clauses(clauses):
    seen = {}
    for c in clauses:
        seen.setdefault(c.key(), c)
    return tuple(seen.values())


def _beta_contradictory(beta) -> bool:
    pos = {(a.symbol, a.args) for a in beta if a.positive}
    neg = {(a.symbol, a.args) for a in beta if not a.positive}
    return bool(pos & neg)


def primitivize(phi: SNPFormula, cap: int = PRIMITIVIZE_CAP) -> SNPFormula:
    """Make every clause decide every proof atom over its variables.

    Each missing atom doubles the clause; contradictory expansions are
    vacuous and dropped.  Restriction flags are preserved.
    """
    out = []
    for c in phi.clauses:
        decided = {(a.symbol, a.args) for a in c.beta}
        missing = []
        for pname, par in phi.proof:
            for t in itertools.product(c.variables, repeat=par):
                if (pname, t) not in decided:
                    missing.append((pname, t))
        if len(out) + (1 << min(len(missing), 40)) > cap:
            raise GuardExceededError(
                f"primitivization needs 2^{len(missing)} clauses; cap is {cap}"
            )
        for polarity in itertools.product((True, False), repeat=len(missing)):
            beta = c.beta + tuple(
                Atom(pn, t, pos) for (pn, t), pos in zip(missing, polarity)
            )
            if _beta_contradictory(beta):
                continue
            out.append(Clause(c.variables, c.alpha, beta, c.epsilon))
    return SNPFormula(phi.input_sig, phi.proof, _dedup_clauses(out))


def uniformize_arity(phi: SNPFormula) -> SNPFormula:
    """Pad every proof symbol to the maximal proof arity with fresh variables.

    Fresh variables are distinct per atom occurrence, so the padded symbol
    reads as the projection of the original.
    """
    if not phi.proof:
        return phi
    rmax = max(a for _, a in phi.proof)
    if all(a == rmax for _, a in phi.proof):
        return phi
    new_proof = tuple((n, rmax) for n, _ in phi.proof)
    old_arity = dict(phi.proof)
    clauses = []
    for c in phi.clauses:
        counter = 0
        variables = list(c.variables)
        beta = []
        for at in c.beta:
            pad = rmax - old_arity[at.symbol]
            if pad == 0:
                beta.append(at)
                continue
            fresh = []
            for _ in range(pad):
                while f"u{counter}" in variables:
                    counter += 1
                fresh.append(f"u{counter}")
                variables.append(f"u{counter}")
                counter += 1
            beta.append(Atom(at.symbol, at.args + tuple(fresh), at.positive))
        clauses.append(Clause(tuple(variables), c.alpha, tuple(beta), c.epsilon))
    return SNPFormula(phi.input_sig, new_proof, tuple(clauses))


def _substitute_clause(c: Clause, mapping) -> Clause:
    """Apply a variable renaming."""
    variables = []
    for v in c.variables:
        w = mapping.get(v, v)
        if w not in variables:
            variables.append(w)
    return Clause(
        tuple(variables),
        tuple(a.substitute(mapping) for a in c.alpha),
        tuple(a.substitute(mapping) for a in c.beta),
        tuple((mapping.get(x, x), mapping.get(y, y)) for x, y in c.epsilon),
    )


def saturate_inequalities(phi: SNPFormula, cap: int = PRIMITIVIZE_CAP) -> SNPFormula:
    """Add x != y for every variable pair, splitting off collapsed variants.

    A clause becomes one clause per partition of its variables that keeps
    its inequalities apart: each class is renamed to its first variable,
    and every pair of the survivors gets an inequality.  `cap` bounds the
    number of partitions.
    """
    out = []
    for c in phi.clauses:
        index = {v: i for i, v in enumerate(c.variables)}
        apart = [(index[x], index[y]) for x, y in c.epsilon]
        for assign, m in _set_partitions(len(c.variables), apart):
            q = c
            if m < len(c.variables):  # the identity partition renames nothing
                first = {}
                q = _substitute_clause(c, {v: first.setdefault(k, v) for v, k in zip(c.variables, assign)})
            have = {frozenset(p) for p in q.epsilon}
            missing = tuple(p for p in itertools.combinations(q.variables, 2) if frozenset(p) not in have)
            out.append(Clause(q.variables, q.alpha, q.beta, q.epsilon + missing))
            if len(out) > cap:
                raise GuardExceededError("inequality saturation exceeds the cap")
    return SNPFormula(phi.input_sig, phi.proof, _dedup_clauses(out))


# ---------------------------------------------------------------------------
# translations to forbidden-lift families
# ---------------------------------------------------------------------------

def _subset_symbols(phi: SNPFormula):
    """One lift symbol per subset of the proof relations."""
    base = "U"
    names = {n for n, _ in phi.input_sig.symbols}
    while any(f"{base}{m}" in names for m in range(1 << len(phi.proof))):
        base = base + "_"
    return [f"{base}{m}" for m in range(1 << len(phi.proof))]


def _lifted_signature(phi: SNPFormula, r: int):
    subs = _subset_symbols(phi)
    symbols = tuple(phi.input_sig.symbols) + tuple((s, r) for s in subs)
    return _interned(symbols, frozenset(subs)), subs


def _clause_pattern(phi, c, sig, subs, r, full_mode=False):
    """The forbidden lift of one primitive clause; None if it never fires."""
    read = _read_clause(c)
    if read is None:
        return None
    var_ix, rels, absent, noncollapse = read
    n = len(c.variables)
    pidx = {name: i for i, (name, _) in enumerate(phi.proof)}
    membership = {}
    for at in c.beta:
        if at.positive:
            t = tuple(var_ix[v] for v in at.args)
            membership[t] = membership.get(t, 0) | (1 << pidx[at.symbol])
    free = frozenset()
    if full_mode:
        # slots not mentioned by the clause carry no polarity requirement
        mentioned = absent | {(sym, t) for sym, tps in rels.items() for t in tps}
        free = frozenset(
            (sym, t)
            for sym, ar in phi.input_sig.symbols
            for t in itertools.product(range(n), repeat=ar)
            if (sym, t) not in mentioned
        )
    for t in itertools.product(range(n), repeat=r):
        rels.setdefault(subs[membership.get(t, 0)], set()).add(t)
    struct = Structure(sig, n, rels, c.variables)
    return Lift(struct, r, "partition", noncollapse, free)


def to_lifts_general(phi: SNPFormula, caps=None) -> PatternFamily:
    """Monotone, inequality-free formulas as plain-mode forbidden lifts.

    Proof arities are uniformized, the formula is primitivized, and each
    clause becomes a lift whose r-tuples carry the subset of proof atoms
    the clause asserts.
    """
    rep = restriction_report(phi)
    if not rep.monotone:
        raise ValueError("general translation needs a monotone formula")
    if not rep.no_inequality:
        raise ValueError("general translation needs an inequality-free formula")
    caps = caps or {}
    phi2 = primitivize(uniformize_arity(phi), **caps)
    r = max((a for _, a in phi2.proof), default=1)
    sig, subs = _lifted_signature(phi2, r)
    pats = []
    for c in phi2.clauses:
        p = _clause_pattern(phi2, c, sig, subs, r)
        if p is not None:
            pats.append(Lift(p.struct, r, "partition"))
    return PatternFamily(sig, _dedup_lifts(pats), "plain", r)


def to_lifts_injective(phi: SNPFormula, caps=None) -> PatternFamily:
    """Monotone monadic formulas as injectively-forbidden monadic lifts."""
    rep = restriction_report(phi)
    if not rep.monotone:
        raise ValueError("injective translation needs a monotone formula")
    if not rep.monadic:
        raise ValueError("injective translation needs a monadic formula")
    caps = caps or {}
    phi2 = saturate_inequalities(primitivize(phi, **caps), **caps)
    sig, subs = _lifted_signature(phi2, 1)
    pats = []
    for c in phi2.clauses:
        p = _clause_pattern(phi2, c, sig, subs, 1)
        if p is not None:
            # saturation supplied every pair, so plain constraints vanish
            pats.append(Lift(p.struct, 1, "partition"))
    return PatternFamily(sig, _dedup_lifts(pats), "injective", 1)


def to_lifts_full(phi: SNPFormula, caps=None) -> PatternFamily:
    """Monadic inequality-free formulas as fully-forbidden monadic lifts.

    Input slots a clause does not mention become free polarity slots:
    full-mode matching must not read conditions into them.
    """
    rep = restriction_report(phi)
    if not rep.monadic:
        raise ValueError("full translation needs a monadic formula")
    if not rep.no_inequality:
        raise ValueError("full translation needs an inequality-free formula")
    caps = caps or {}
    phi2 = primitivize(phi, **caps)
    sig, subs = _lifted_signature(phi2, 1)
    pats = []
    for c in phi2.clauses:
        p = _clause_pattern(phi2, c, sig, subs, 1, full_mode=True)
        if p is not None:
            pats.append(p)
    return PatternFamily(sig, _dedup_lifts(pats), "full", 1)
