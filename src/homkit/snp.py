"""SNP formulas: parsing, model checking, normalization, pattern translation.

A formula is an existential second-order prefix (the proof relations)
over a universal first-order conjunction of negated clauses; each clause
splits into input atoms, proof atoms, and inequalities.  Clause variables
are scoped per clause.  Model checking is exact: one proof bit per proof
atom over the universe, and each clause instance whose input part holds
forbids its proof part as a nogood over those bits.  `solve_nogoods`, the
solver behind forbidden-pattern membership, decides the bits with k = 2.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import GuardExceededError, ParseError, SignatureMismatchError
from .patterns import PatternFamily, _dedup_lifts, solve_nogoods
from .structures import Lift, Signature, Structure

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

    def proof_arity(self, name):
        for n, a in self.proof:
            if n == name:
                return a
        raise KeyError(name)


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
    from .textio import TokenStream, tokenize

    ts = TokenStream(tokenize(text))
    ts.expect("snp")
    ts.expect_kind("name")
    ts.expect("{")
    ts.expect("input")
    ts.expect("{")
    input_syms = []
    while not ts.at("}"):
        sym = ts.expect_kind("name").text
        ts.expect("/")
        input_syms.append((sym, int(ts.expect_kind("int").text)))
    ts.expect("}")
    ts.expect("proof")
    ts.expect("{")
    proof = []
    while not ts.at("}"):
        sym = ts.expect_kind("name").text
        ts.expect("/")
        proof.append((sym, int(ts.expect_kind("int").text)))
    ts.expect("}")
    sig = Signature(tuple(input_syms))
    proof = tuple(proof)
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

def eval_snp(phi: SNPFormula, a: Structure, bits_cap: int = EVAL_BITS_CAP):
    """Does some choice of proof relations satisfy every clause on `a`?"""
    if a.sig != phi.input_sig:
        raise SignatureMismatchError("structure signature differs from the formula's input part")
    n = a.n
    bits = 0
    var_of = {}
    for pname, par in phi.proof:
        for t in itertools.product(range(n), repeat=par):
            var_of[(pname, t)] = bits
            bits += 1
    if bits > bits_cap:
        raise GuardExceededError(f"{bits} proof bits exceed the evaluation cap of {bits_cap}")

    nogoods = set()
    input_rels = {name: a.rel(name) for name, _ in a.sig.symbols}
    for c in phi.clauses:
        vs = c.variables
        for valuation in itertools.product(range(n), repeat=len(vs)):
            env = dict(zip(vs, valuation))
            if any(env[x] == env[y] for x, y in c.epsilon):
                continue
            ok = True
            for at in c.alpha:
                holds = tuple(env[v] for v in at.args) in input_rels[at.symbol]
                if holds != at.positive:
                    ok = False
                    break
            if not ok:
                continue
            nogood = {}
            for at in c.beta:
                var = var_of[(at.symbol, tuple(env[v] for v in at.args))]
                if nogood.setdefault(var, at.positive) != at.positive:
                    break  # beta mentions both polarities: never violated
            else:
                if not nogood:
                    return False  # input-only violation: no proof can help
                nogoods.add(frozenset(nogood.items()))
    return solve_nogoods(bits, 2, sorted(nogoods, key=sorted)) is not None


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


def _substitute_clause(c: Clause, mapping) -> Clause | None:
    """Apply a variable renaming; None if an inequality collapses."""
    variables = []
    for v in c.variables:
        w = mapping.get(v, v)
        if w not in variables:
            variables.append(w)
    eps = []
    for x, y in c.epsilon:
        nx, ny = mapping.get(x, x), mapping.get(y, y)
        if nx == ny:
            return None
        eps.append((nx, ny))
    return Clause(
        tuple(variables),
        tuple(a.substitute(mapping) for a in c.alpha),
        tuple(a.substitute(mapping) for a in c.beta),
        tuple(eps),
    )


def saturate_inequalities(phi: SNPFormula, cap: int = PRIMITIVIZE_CAP) -> SNPFormula:
    """Add x != y for every variable pair, splitting off collapsed variants."""
    queue = list(phi.clauses)
    done = []
    while queue:
        if len(queue) + len(done) > cap:
            raise GuardExceededError("inequality saturation exceeds the cap")
        c = queue.pop()
        have = {frozenset(p) for p in c.epsilon}
        missing = None
        for i, x in enumerate(c.variables):
            for y in c.variables[i + 1 :]:
                if frozenset((x, y)) not in have:
                    missing = (x, y)
                    break
            if missing:
                break
        if missing is None:
            done.append(c)
            continue
        x, y = missing
        queue.append(Clause(c.variables, c.alpha, c.beta, c.epsilon + ((x, y),)))
        collapsed = _substitute_clause(c, {y: x})
        if collapsed is not None:
            queue.append(collapsed)
    return SNPFormula(phi.input_sig, phi.proof, _dedup_clauses(done))


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
    return Signature(symbols, frozenset(subs)), subs


def _clause_pattern(phi, c, sig, subs, r, full_mode=False):
    """The forbidden lift of one primitive clause; None if vacuous."""
    if _beta_contradictory(c.beta):
        return None
    var_ix = {v: i for i, v in enumerate(c.variables)}
    n = len(c.variables)
    rels = {}
    absent = set()
    for at in c.alpha:
        t = tuple(var_ix[v] for v in at.args)
        if at.positive:
            rels.setdefault(at.symbol, set()).add(t)
        else:
            absent.add((at.symbol, t))
    for sym, tps in rels.items():
        if any((sym, t) in absent for t in tps):
            return None  # a slot required both present and absent
    pidx = {name: i for i, (name, _) in enumerate(phi.proof)}
    membership = {}
    for at in c.beta:
        t = tuple(var_ix[v] for v in at.args)
        if at.positive:
            membership[t] = membership.get(t, 0) | (1 << pidx[at.symbol])
        else:
            membership.setdefault(t, 0)
    for t in itertools.product(range(n), repeat=r):
        m = membership.get(t, 0)
        rels.setdefault(subs[m], set()).add(t)
    struct = Structure(sig, n, rels, c.variables)
    noncollapse = frozenset(
        tuple(sorted((var_ix[x], var_ix[y]))) for x, y in c.epsilon
    )
    free = frozenset()
    if full_mode:
        # slots not mentioned by the clause carry no polarity requirement
        mentioned = absent | {
            (sym, t) for sym, tps in rels.items() if sym not in subs for t in tps
        }
        free = frozenset(
            (sym, t)
            for sym, ar in phi.input_sig.symbols
            for t in itertools.product(range(n), repeat=ar)
            if (sym, t) not in mentioned
        )
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
