import dataclasses
import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from homkit import snp
from homkit.enumeration import all_structures
from homkit.errors import ParseError
from homkit.patterns import _walk_occurrences, fp_membership
from homkit.snp import (
    Atom,
    Clause,
    SNPFormula,
    eval_snp,
    parse_snp,
    primitivize,
    restriction_report,
    saturate_inequalities,
    serialize_snp,
    to_lifts_full,
    to_lifts_general,
    to_lifts_injective,
    uniformize_arity,
)
from homkit.structures import Structure

from util import (
    DIGRAPH,
    MIXED,
    bipartite,
    clique,
    digraph,
    mixed_structures,
    naive_formula_nogoods,
    naive_saturate_inequalities,
    partial_formulas,
    same_constraint,
    shadow_sharing_formulas,
    ue_structures,
)

TWO_TRIANGLE_FREE = """
snp two_triangle_free {
  input { E/2 }
  proof { P1/1 P2/1 }
  clause NOT( E(x1,x2) & E(x1,x3) & E(x2,x3) & P1(x1) & P1(x2) & P1(x3) & x1 != x2 & x1 != x3 & x2 != x3 ) ;
  clause NOT( E(x1,x2) & E(x1,x3) & E(x2,x3) & P2(x1) & P2(x2) & P2(x3) & x1 != x2 & x1 != x3 & x2 != x3 ) ;
  clause NOT( !P1(y) & !P2(y) ) ;
}
"""

THREE_COL = """
snp three_col {
  input { E/2 }
  proof { C1/1 C2/1 C3/1 }
  clause NOT( E(x,y) & C1(x) & C1(y) ) ;
  clause NOT( E(x,y) & C2(x) & C2(y) ) ;
  clause NOT( E(x,y) & C3(x) & C3(y) ) ;
  clause NOT( !C1(z) & !C2(z) & !C3(z) ) ;
}
"""


class TestParse:
    def test_example_formula(self):
        phi = parse_snp(TWO_TRIANGLE_FREE)
        assert len(phi.clauses) == 3
        triangle_clauses = [c for c in phi.clauses if c.alpha]
        assert len(triangle_clauses) == 2
        coverage = [c for c in phi.clauses if not c.alpha]
        assert len(coverage) == 1 and len(coverage[0].beta) == 2

    def test_empty_clause_list_accepts_everything(self):
        phi = parse_snp("snp t { input { E/2 } proof { P/1 } }")
        assert eval_snp(phi, clique(3))
        assert eval_snp(phi, digraph(0))

    def test_arity_error(self):
        with pytest.raises(ParseError):
            parse_snp("snp t { input { E/2 } proof { P/1 } clause NOT( P(x,y) ) ; }")

    def test_round_trip(self):
        phi = parse_snp(TWO_TRIANGLE_FREE)
        assert serialize_snp(parse_snp(serialize_snp(phi))) == serialize_snp(phi)

    def test_restriction_report(self):
        rep = restriction_report(parse_snp(TWO_TRIANGLE_FREE))
        assert rep.monotone and rep.monadic and not rep.no_inequality
        rep2 = restriction_report(parse_snp(THREE_COL))
        assert rep2.monotone and rep2.monadic and rep2.no_inequality


class TestEval:
    def test_partition_into_triangle_free(self):
        phi = parse_snp(TWO_TRIANGLE_FREE)
        assert eval_snp(phi, clique(3)) is True
        assert eval_snp(phi, clique(4)) is True
        assert eval_snp(phi, clique(5)) is False
        assert eval_snp(phi, clique(7)) is False

    def test_monotone_formula_on_empty_structure(self):
        phi = parse_snp(THREE_COL)
        assert eval_snp(phi, digraph(0)) is True

    def test_three_colorability(self):
        phi = parse_snp(THREE_COL)

        def brute(a):
            return a.n == 0 or any(
                all(c[x] != c[y] for x, y in a.rel("E"))
                for c in itertools.product(range(3), repeat=a.n)
            )

        for a in all_structures(DIGRAPH, 3):
            assert eval_snp(phi, a) == brute(a), a


# two-colourability, as the formula that perfbench compiles in its
# "compiled-two-col" acceptance family
TWO_COL = """
snp c3 {
  input { E/2 }
  proof { C1/1 C2/1 }
  clause NOT( E(x,y) & C1(x) & C1(y) ) ;
  clause NOT( E(x,y) & C2(x) & C2(y) ) ;
  clause NOT( !C1(z) & !C2(z) ) ;
}
"""


class TestEvalThroughTemplates:
    """2n proof bits, past the evaluation cap, decided by a search into the formula's template."""

    @pytest.mark.parametrize("n", [11, 12, 31, 100])
    def test_paths_and_cycles(self, n):
        phi = parse_snp(TWO_COL)
        path = [(i, i + 1) for i in range(n - 1)]
        assert eval_snp(phi, digraph(n, path)) is True
        assert eval_snp(phi, digraph(n, path + [(n - 1, 0)])) is (n % 2 == 0)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(11, 100), data=st.data())
    def test_random_graphs(self, n, data):
        vertex = st.integers(0, n - 1)
        arcs = data.draw(st.lists(st.tuples(vertex, vertex), max_size=n))
        assert eval_snp(parse_snp(TWO_COL), digraph(n, arcs)) == bipartite(n, arcs)

def _brute_eval(phi, a):
    """Try every choice of proof relations against every clause valuation."""
    atoms = [(name, t) for name, ar in phi.proof for t in itertools.product(range(a.n), repeat=ar)]

    def violated(c, truth):
        for vals in itertools.product(range(a.n), repeat=len(c.variables)):
            env = dict(zip(c.variables, vals))
            if any(env[x] == env[y] for x, y in c.epsilon):
                continue
            if all((tuple(env[v] for v in at.args) in a.rel(at.symbol)) == at.positive for at in c.alpha) and all(
                truth[(at.symbol, tuple(env[v] for v in at.args))] == at.positive for at in c.beta
            ):
                return True
        return False

    for bits in itertools.product((False, True), repeat=len(atoms)):
        truth = dict(zip(atoms, bits))
        if not any(violated(c, truth) for c in phi.clauses):
            return True
    return False


@pytest.mark.parametrize(
    "text",
    [
        # two-colourability with a negated proof atom; a loop is a clause
        # instance with both polarities of P(x)
        "snp b0 { input { E/2 } proof { P/1 } clause NOT( E(x,y) & P(x) & P(y) ) ; "
        "clause NOT( E(x,y) & !P(x) & !P(y) ) ; }",
        "snp b1 { input { E/2 } proof { P/1 } clause NOT( E(x,y) & P(x) & !P(y) ) ; clause NOT( E(x,x) & !P(x) ) ; "
        "clause NOT( E(x,y) & E(y,x) & P(y) & x != y ) ; }",
        # E inside a strict order: acyclicity, over a binary proof relation
        "snp b2 { input { E/2 } proof { Q/2 } clause NOT( E(x,y) & !Q(x,y) ) ; "
        "clause NOT( Q(x,y) & Q(y,z) & !Q(x,z) ) ; clause NOT( Q(x,x) ) ; }",
        # the first clause writes both polarities of P(x) and is never violated
        "snp b3 { input { E/2 } proof { P/1 Q/1 } clause NOT( E(x,y) & P(x) & !P(x) & Q(y) ) ; "
        "clause NOT( E(x,y) & !P(x) & !P(y) ) ; clause NOT( E(x,y) & Q(x) & Q(y) ) ; "
        "clause NOT( E(x,y) & P(x) & P(y) & !Q(x) & !Q(y) ) ; }",
        "snp b4 { input { E/2 } proof { P/1 Q/1 } clause NOT( !E(x,y) & P(x) & !Q(y) & x != y ) ; "
        "clause NOT( Q(x) & Q(y) & E(x,y) ) ; clause NOT( E(x,y) & !P(x) & !P(y) ) ; "
        "clause NOT( E(x,y) & P(x) & P(y) & !Q(x) & !Q(y) ) ; }",
    ],
)
def test_eval_matches_brute_force(text):
    phi = parse_snp(text)
    for a in all_structures(DIGRAPH, 3):
        assert eval_snp(phi, a) == _brute_eval(phi, a), (text, a)


MIXED_PROOF = (("P", 1), ("Q", 2))


@st.composite
def mixed_formulas(draw):
    """Formulas over MIXED with proof symbols P/1 and Q/2.

    Atoms draw their arguments from three variables, so they repeat
    variables (T(x,x,y)); input atoms may be negated, inequalities join
    distinct variables, and a variable may occur in proof atoms only.
    """
    arity = dict(MIXED.symbols) | dict(MIXED_PROOF)
    var = st.sampled_from("xyz")
    atom = st.tuples(st.sampled_from(sorted(arity)), st.lists(var, min_size=3, max_size=3), st.booleans())
    clauses = []
    for atoms in draw(st.lists(st.lists(atom, min_size=1, max_size=4), min_size=1, max_size=3)):
        atoms = [Atom(sym, tuple(args[: arity[sym]]), pos) for sym, args, pos in atoms]
        eps = draw(st.lists(st.tuples(var, var).filter(lambda p: p[0] != p[1]), max_size=2))
        variables = []
        for v in [v for at in atoms for v in at.args] + [v for p in eps for v in p]:
            if v not in variables:
                variables.append(v)
        alpha = tuple(at for at in atoms if at.symbol in MIXED.names)
        beta = tuple(at for at in atoms if at.symbol not in MIXED.names)
        clauses.append(Clause(tuple(variables), alpha, beta, tuple(eps)))
    return SNPFormula(MIXED, MIXED_PROOF, tuple(clauses))


# a variable in proof atoms only, a repeated variable, a negated input atom
# and an inequality in one clause
@example(
    phi=SNPFormula(
        MIXED,
        MIXED_PROOF,
        (
            Clause(
                ("x", "y", "z"),
                (Atom("T", ("x", "x", "y")), Atom("U", ("y",), False)),
                (Atom("Q", ("y", "z")),),
                (("x", "y"),),
            ),
        ),
    ),
    a=Structure(MIXED, 2, {"T": [(0, 0, 1), (1, 1, 0)], "U": [(0,)]}),
)
@given(phi=mixed_formulas(), a=mixed_structures(max_n=3, max_tuples=4, min_n=1))
@settings(max_examples=300, deadline=None)
def test_eval_matches_brute_force_mixed(phi, a):
    # P/1 and Q/2 on at most 3 elements: at most 2^12 proof choices
    assert eval_snp(phi, a) == _brute_eval(phi, a)


@given(phi=shadow_sharing_formulas(), a=ue_structures())
@settings(max_examples=300, deadline=None)
def test_grouped_walk_matches_the_per_clause_walk(phi, a):
    spaces = []
    first = 0
    for name, arity in phi.proof:
        tuples = itertools.product(range(a.n), repeat=arity)
        spaces.append({t[0] if arity == 1 else t: first + i for i, t in enumerate(tuples)})
        first += a.n**arity
    walked = _walk_occurrences(phi._compiled, a, spaces)
    assert same_constraint(first, 2, walked, naive_formula_nogoods(phi, a))


@given(pair=partial_formulas(), a=ue_structures())
@settings(max_examples=150, deadline=None)
def test_written_out_clauses_evaluate_as_brute_force(pair, a):
    # negated input atoms are absent slots, inequalities noncollapse pairs
    phi, written = pair
    want = _brute_eval(phi, a)
    assert eval_snp(written, a) == want
    assert eval_snp(phi, a) == want


def test_formula_compiles_once(monkeypatch):
    phi = parse_snp(THREE_COL)
    built = []
    real = snp.Structure
    monkeypatch.setattr(snp, "Structure", lambda *args: built.append(args) or real(*args))
    for a in [clique(3), clique(4), digraph(2, [(0, 0)]), digraph(0)] * 5:
        eval_snp(phi, a)
    assert len(built) == len(phi.clauses)


def test_formula_hash_is_the_dataclass_hash_computed_once(monkeypatch):
    phi, twin = parse_snp(THREE_COL), parse_snp(THREE_COL)
    assert phi == twin and phi is not twin and hash(phi) == hash(twin)
    assert hash(phi) == hash(tuple(getattr(phi, f.name) for f in dataclasses.fields(phi)))
    hashed = []
    clause_hash = Clause.__hash__
    monkeypatch.setattr(Clause, "__hash__", lambda c: hashed.append(c) or clause_hash(c))
    fresh = parse_snp(THREE_COL)
    assert {hash(fresh) for _ in range(3)} == {hash(phi)}
    assert hashed == list(fresh.clauses)


def _formula_corpus():
    """Hand-picked formulas spanning the restriction combinations."""
    texts = [
        THREE_COL,
        TWO_TRIANGLE_FREE,
        # no proof relations at all
        "snp t0 { input { E/2 } proof { } clause NOT( E(x,x) ) ; }",
        # single monadic proof, negated input atom (non-monotone)
        "snp t1 { input { E/2 } proof { P/1 } clause NOT( !E(x,y) & P(x) & P(y) ) ; }",
        # inequality plus coverage
        "snp t2 { input { E/2 } proof { P/1 } clause NOT( E(x,y) & P(x) & P(y) & x != y ) ; clause NOT( !P(z) ) ; }",
        # binary proof symbol
        "snp t3 { input { E/2 } proof { Q/2 } clause NOT( E(x,y) & !Q(x,y) ) ; clause NOT( Q(x,y) & Q(y,x) ) ; }",
        # mixed arities (exercises padding)
        "snp t4 { input { E/2 } proof { P/1 Q/2 } clause NOT( E(x,x) & P(x) ) ; clause NOT( E(x,x) & !Q(x,x) ) ; }",
        # two monadic proofs, three-variable clause
        "snp t5 { input { E/2 } proof { P1/1 P2/1 } clause NOT( E(x,y) & E(y,z) & P1(x) & !P2(z) ) ; }",
        # pure proof clause
        "snp t6 { input { E/2 } proof { P/1 } clause NOT( P(x) & !P(y) ) ; }",
        # unary input relation alongside the edge
        "snp t7 { input { E/2 } proof { P/1 } clause NOT( E(x,y) & !P(y) ) ; clause NOT( E(y,x) & P(y) ) ; }",
    ]
    return [parse_snp(t) for t in texts]


@pytest.mark.parametrize("pass_name", ["primitivize", "uniformize_arity", "saturate_inequalities"])
def test_pass_invariance_on_corpus(pass_name):
    passes = {
        "primitivize": primitivize,
        "uniformize_arity": uniformize_arity,
        "saturate_inequalities": saturate_inequalities,
    }
    corpus3 = list(all_structures(DIGRAPH, 3))
    for phi in _formula_corpus():
        phi2 = passes[pass_name](phi)
        for a in corpus3:
            assert eval_snp(phi, a) == eval_snp(phi2, a), (serialize_snp(phi), pass_name, a)


def test_primitivize_properties():
    for phi in _formula_corpus():
        phi2 = primitivize(phi)
        # flags are preserved pointwise
        assert restriction_report(phi2) == restriction_report(phi)
        # every proof atom over clause variables is decided
        for c in phi2.clauses:
            decided = {(a.symbol, a.args) for a in c.beta}
            for pname, par in phi2.proof:
                for t in itertools.product(c.variables, repeat=par):
                    assert (pname, t) in decided
        # a second application changes nothing
        assert len(primitivize(phi2).clauses) == len(phi2.clauses)


def test_uniformize_fixpoints():
    phi = parse_snp(THREE_COL)
    assert uniformize_arity(phi) is phi
    nop = parse_snp("snp t { input { E/2 } proof { } clause NOT( E(x,x) ) ; }")
    assert uniformize_arity(nop) is nop


def test_saturate_single_variable_clause_unchanged():
    phi = parse_snp("snp t { input { E/2 } proof { P/1 } clause NOT( P(x) ) ; }")
    assert saturate_inequalities(phi).clauses == phi.clauses


def test_saturate_splits_pairs():
    phi = parse_snp("snp t { input { E/2 } proof { P/1 } clause NOT( E(x,y) & P(x) ) ; }")
    phi2 = saturate_inequalities(phi)
    assert len(phi2.clauses) == 2
    sizes = sorted(len(c.variables) for c in phi2.clauses)
    assert sizes == [1, 2]


def _saturated_keys(phi):
    clauses = saturate_inequalities(phi).clauses
    keys = {c.key() for c in clauses}
    assert len(keys) == len(clauses)
    return keys


@given(mixed_formulas())
@settings(max_examples=200, deadline=None)
def test_saturate_matches_the_pairwise_worklist(phi):
    assert _saturated_keys(phi) == naive_saturate_inequalities(phi)


def test_saturate_matches_the_pairwise_worklist_on_primitive_corpus():
    for phi in _formula_corpus():
        psi = primitivize(phi)
        assert _saturated_keys(psi) == naive_saturate_inequalities(psi), serialize_snp(phi)


class TestTranslations:
    def test_general_needs_restrictions(self):
        with pytest.raises(ValueError):
            to_lifts_general(parse_snp(TWO_TRIANGLE_FREE))  # has inequality
        nonmono = parse_snp(
            "snp t { input { E/2 } proof { P/1 } clause NOT( !E(x,y) & P(x) ) ; }"
        )
        with pytest.raises(ValueError):
            to_lifts_general(nonmono)

    def test_injective_needs_monadic(self):
        binary = parse_snp(
            "snp t { input { E/2 } proof { Q/2 } clause NOT( Q(x,y) ) ; }"
        )
        with pytest.raises(ValueError):
            to_lifts_injective(binary)

    def test_full_needs_no_inequality(self):
        with pytest.raises(ValueError):
            to_lifts_full(parse_snp(TWO_TRIANGLE_FREE))

    def test_single_clause_general_shape(self):
        phi = parse_snp(
            "snp t { input { E/2 } proof { P/1 } clause NOT( E(x,y) & P(x) & !P(y) ) ; }"
        )
        fam = to_lifts_general(phi)
        assert fam.lift_arity == 1
        assert fam.mode_tag == "plain"
        (pat,) = fam.patterns
        assert pat.struct.n == 2
        assert len(pat.struct.rel("E")) == 1

    def test_no_clause_formula_gives_empty_family(self):
        phi = parse_snp("snp t { input { E/2 } proof { P/1 } }")
        for translate in (to_lifts_general, to_lifts_injective, to_lifts_full):
            fam = translate(phi)
            assert fam.patterns == ()

    @pytest.mark.parametrize(
        "translate,admissible",
        [
            (to_lifts_general, lambda r: r.monotone and r.no_inequality),
            (to_lifts_injective, lambda r: r.monotone and r.monadic),
            (to_lifts_full, lambda r: r.monadic and r.no_inequality),
        ],
    )
    def test_membership_equals_eval_small(self, translate, admissible):
        corpus = list(all_structures(DIGRAPH, 3))
        for phi in _formula_corpus():
            if not admissible(restriction_report(phi)):
                continue
            fam = translate(phi)
            for a in corpus:
                want = eval_snp(phi, a, bits_cap=24)
                got = fp_membership(a, fam) is not None
                assert want == got, (serialize_snp(phi), a)
