import pytest
from hypothesis import given, settings, strategies as st

from homkit.enumeration import all_structures, high_girth_structures
from homkit.errors import GirthTooSmallError, GuardExceededError
from homkit.fv import (
    build_basis,
    build_gprime,
    girth_threshold,
    psi,
    psi_lifted,
    reduce_backward,
    reduce_forward,
    theta,
    theta_lifted,
)
from homkit.homs import all_homs, hom_exists
from homkit.patterns import PatternFamily, fp_membership
from homkit.structures import Lift, Structure, is_isomorphic, make_signature, shadow

from util import DIGRAPH, clique, dcycle, digraph, dpath, fully_colored, monadic_families, naive_gprime

TSIG = make_signature([("E", 2), ("C", 1)], lift=["C"])
CSIG = make_signature([("E", 2), ("C1", 1), ("C2", 1), ("C3", 1)], lift=["C1", "C2", "C3"])


def triangle_free_family():
    tri = Lift(
        Structure(TSIG, 3, {"E": [(0, 1), (1, 2), (2, 0)], "C": [(0,), (1,), (2,)]}),
        1,
        "partition",
    )
    return PatternFamily(TSIG, (tri,), "plain", 1)


def three_col_family():
    pats = []
    for i in (1, 2, 3):
        pats.append(Lift(Structure(CSIG, 2, {"E": [(0, 1)], f"C{i}": [(0,), (1,)]}), 1, "none"))
    return PatternFamily(CSIG, tuple(pats), "plain", 1)


class TestBasis:
    def test_triangle_family_blocks(self):
        basis = build_basis(triangle_free_family())
        sizes = sorted(b.n for b in basis.blocks)
        assert sizes == [2, 3]  # the generic arc block plus the triangle
        assert [ar for _, ar in basis.beta.symbols] == [2, 3]

    def test_three_col_blocks(self):
        basis = build_basis(three_col_family())
        assert [b.n for b in basis.blocks] == [2]

    def test_pendant_pattern_two_block_classes(self):
        pat = Lift(
            Structure(
                TSIG, 4, {"E": [(0, 1), (1, 2), (2, 0), (2, 3)], "C": [(0,), (1,), (2,), (3,)]}
            ),
            1,
            "partition",
        )
        fam = PatternFamily(TSIG, (pat,), "plain", 1)
        basis = build_basis(fam)
        assert sorted(b.n for b in basis.blocks) == [2, 3]


class TestFunctors:
    def test_psi_counts_block_occurrences(self):
        fam = triangle_free_family()
        basis = build_basis(fam)
        tri_sym = basis.block_symbol(1)
        arc_sym = basis.block_symbol(0)
        image = psi(clique(3), basis)
        assert len(image.rel(tri_sym)) == 6
        assert len(image.rel(arc_sym)) == 6
        assert len(psi(dpath(1), basis).rel(arc_sym)) == 1
        empty = psi(digraph(2), basis)
        assert empty.total_tuples() == 0

    def test_theta_replays_blocks(self):
        basis = build_basis(triangle_free_family())
        tri_sym = basis.block_symbol(1)
        b = Structure(basis.beta, 3, {tri_sym: [(0, 1, 2)]})
        assert theta(b, basis) == dcycle(3)
        collapsed = Structure(basis.beta, 2, {tri_sym: [(0, 0, 1)]})
        img = theta(collapsed, basis)
        assert (0, 0) in img.rel("E") and (0, 1) in img.rel("E") and (1, 0) in img.rel("E")

    def test_theta_psi_identity(self):
        for fam in [triangle_free_family(), three_col_family()]:
            basis = build_basis(fam)
            for a in all_structures(DIGRAPH, 4):
                assert theta(psi(a, basis), basis) == a

    def test_inflation_on_sparse_structures(self):
        basis = build_basis(triangle_free_family())
        for b in high_girth_structures(basis.beta, 3, 1, max_tuples=3):
            back = psi(theta(b, basis), basis)
            for name, _ in basis.beta.symbols:
                assert b.rel(name) <= back.rel(name), b

    def test_lifted_functors_roundtrip(self):
        fam = triangle_free_family()
        basis = build_basis(fam)
        lift = Lift(
            Structure(TSIG, 3, {"E": [(0, 1), (1, 2)], "C": [(0,), (1,), (2,)]}),
            1,
            "partition",
        )
        there = psi_lifted(lift, basis)
        back = theta_lifted(there, basis)
        assert shadow(back) == shadow(lift)
        assert back.struct.rel("C") == lift.struct.rel("C")

    def test_empty_basis(self):
        # a base signature without symbols leaves no blocks to read it from
        sig = make_signature([("C", 1)], lift=["C"])
        pat = Lift(Structure(sig, 1, {"C": [(0,)]}), 1, "partition")
        fam = PatternFamily(sig, (pat,), "plain", 1)
        basis = build_basis(fam)
        assert basis.blocks == ()
        base = fam.base_sig
        assert theta(Structure(basis.beta, 2), basis) == Structure(base, 2)
        assert reduce_backward(Structure(basis.beta, 2), fam, basis) == Structure(base, 2)
        back = theta_lifted(Lift(Structure(basis.lifted, 2, {"C": [(0,), (1,)]}), 1, "partition"), basis)
        assert back.struct == Structure(sig, 2, {"C": [(0,), (1,)]})


class TestGPrime:
    def test_triangle_family_single_member(self):
        fam = triangle_free_family()
        basis = build_basis(fam)
        gfam = build_gprime(fam, basis)
        assert len(gfam.patterns) == 1
        (m,) = gfam.patterns
        tri_sym = basis.block_symbol(1)
        assert len(m.struct.rel(tri_sym)) == 1
        assert m.struct.n == 3

    def test_three_col_members(self):
        fam = three_col_family()
        basis = build_basis(fam)
        gfam = build_gprime(fam, basis)
        assert len(gfam.patterns) == 3
        arc_sym = basis.block_symbol(0)
        for m in gfam.patterns:
            assert len(m.struct.rel(arc_sym)) == 1
            assert m.struct.n == 2

    def test_members_are_forests(self):
        from homkit.shape import is_forest

        for fam in [triangle_free_family(), three_col_family()]:
            basis = build_basis(fam)
            for m in build_gprime(fam, basis).patterns:
                assert is_forest(m.struct)

    def test_patterns_map_into_psi_of_their_lifts(self):
        # every original pattern occurs in the image of its own lift
        fam = triangle_free_family()
        basis = build_basis(fam)
        gfam = build_gprime(fam, basis)
        for p in fam.patterns:
            image = psi_lifted(p, basis)
            assert any(
                hom_exists(m.struct, image.struct) is not None for m in gfam.patterns
            )


    def test_uncolored_element_colored_every_way(self):
        sig = make_signature([("E", 2), ("C0", 1), ("C1", 1)], lift=["C0", "C1"])
        fam = PatternFamily(sig, (Lift(Structure(sig, 2, {"E": [(0, 1)], "C0": [(0,)]}), 1, "none"),), "plain", 1)
        basis = build_basis(fam)
        assert build_gprime(fam, basis) == build_gprime(fully_colored(fam), basis)

    @settings(max_examples=150, deadline=None)
    @given(monadic_families(), st.sampled_from([32, 256, 4096]))
    def test_matches_naive_assembly(self, fam, cap):
        basis = build_basis(fam)
        try:
            expected = naive_gprime(fully_colored(fam), basis, cap)
        except GuardExceededError:
            with pytest.raises(GuardExceededError):
                build_gprime(fam, basis, cap)
            return
        assert build_gprime(fam, basis, cap) == expected


def uncolored_families():
    sig = make_signature([("E", 2), ("C0", 1), ("C1", 1)], lift=["C0", "C1"])

    def pattern(n, arcs, c0=(), c1=()):
        rels = {"E": arcs, "C0": [(x,) for x in c0], "C1": [(x,) for x in c1]}
        return Lift(Structure(sig, n, rels), 1, "none")

    return [
        PatternFamily(sig, (pattern(2, [(0, 1)], c0=[0]),), "plain", 1),
        PatternFamily(sig, (pattern(3, [(0, 1), (1, 2)], c1=[2]), pattern(2, [(0, 1)], c0=[0, 1])), "plain", 1),
        PatternFamily(sig, (pattern(3, [(0, 1), (1, 2), (2, 0)], c0=[0]),), "plain", 1),
    ]


class TestReductions:
    def test_forward_equivalence_uncolored_elements(self):
        for fam in uncolored_families():
            basis = build_basis(fam)
            gfam = build_gprime(fam, basis)
            for a in all_structures(DIGRAPH, 3):
                a = Structure(fam.base_sig, a.n, {"E": a.rel("E")})
                in_l = fp_membership(a, fam) is not None
                mapped = fp_membership(psi(a, basis), gfam) is not None
                assert in_l == mapped, (fam, a)

    def test_forward_equivalence_triangle_free(self):
        fam = triangle_free_family()
        basis = build_basis(fam)
        gfam = build_gprime(fam, basis)
        for a in all_structures(DIGRAPH, 4):
            in_l = fp_membership(a, fam) is not None
            mapped = fp_membership(psi(a, basis), gfam) is not None
            assert in_l == mapped, a

    def test_forward_equivalence_three_col(self):
        fam = three_col_family()
        basis = build_basis(fam)
        gfam = build_gprime(fam, basis)
        for a in all_structures(DIGRAPH, 4):
            in_l = fp_membership(a, fam) is not None
            mapped = fp_membership(psi(a, basis), gfam) is not None
            assert in_l == mapped, a

    def test_backward_equivalence_high_girth(self):
        fam = triangle_free_family()
        basis = build_basis(fam)
        gfam = build_gprime(fam, basis)
        k = girth_threshold(fam)
        for b in high_girth_structures(basis.beta, 4, k + 1):
            lhs = fp_membership(b, gfam) is not None
            rhs = fp_membership(theta(b, basis), fam) is not None
            assert lhs == rhs, b

    def test_girth_threshold_values(self):
        assert girth_threshold(triangle_free_family()) == 3
        assert girth_threshold(three_col_family()) == 2
        assert girth_threshold(PatternFamily(TSIG, (), "plain", 1)) == 0

    def test_reduce_backward_guard(self):
        fam = triangle_free_family()
        basis = build_basis(fam)
        tri_sym = basis.block_symbol(1)
        bad = Structure(basis.beta, 4, {tri_sym: [(0, 1, 2), (0, 1, 3)]})
        with pytest.raises(GirthTooSmallError) as exc:
            reduce_backward(bad, fam, basis)
        assert exc.value.cycle

    def test_reduce_backward_examples(self):
        fam = triangle_free_family()
        basis = build_basis(fam)
        tri_sym = basis.block_symbol(1)
        single = Structure(basis.beta, 3, {tri_sym: [(0, 1, 2)]})
        img = reduce_backward(single, fam, basis)
        assert img == dcycle(3)
        assert fp_membership(img, fam) is None  # a triangle is not triangle-free

    def test_reduce_forward_full_pipeline(self):
        fam = triangle_free_family()
        image, gfam, templates = reduce_forward(clique(3), fam)
        assert fp_membership(image, gfam) is None  # K3 is not in the language
        image2, _, _ = reduce_forward(dcycle(5), fam)
        assert fp_membership(image2, gfam) is not None
        # the emitted templates agree with membership on small high-girth inputs
        if templates is not None:
            basis = build_basis(fam)
            k = girth_threshold(fam)
            for b in high_girth_structures(basis.beta, 3, k + 1):
                lhs = fp_membership(b, gfam) is not None
                rhs = any(hom_exists(b, t) is not None for t in templates)
                assert lhs == rhs, b
