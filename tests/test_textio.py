import pytest

from homkit.enumeration import all_structures
from homkit.errors import ParseError
from homkit.patterns import PatternFamily, fp_membership
from homkit.structures import Lift, Structure, is_isomorphic, make_signature
from homkit.textio import (
    parse_document,
    parse_family,
    parse_structure,
    serialize_family,
    serialize_structure,
)

from util import DIGRAPH, clique, digraph

K3_TEXT = """
# a complete symmetric triangle
signature digraph { E/2 }
structure K3 : digraph {
  universe = {a, b, c} ;
  E = {(a,b), (b,a), (a,c), (c,a), (b,c), (c,b)}
}
"""

FAMILY_TEXT = """
signature csig { E/2 C1/1 lift C2/1 lift }
family mono : csig {
  mode = plain ;
  lift_arity = 1 ;
  pattern P1 { universe = {x, y} ; E = {(x,y)} ; C1 = {x, y} }
  pattern P2 { universe = {x, y} ; E = {(x,y)} ; C2 = {(x), (y)} ;
               constraints { x != y ; tuple E(y,x) free } }
}
"""


class TestParsing:
    def test_two_vertex_digraph(self):
        a = parse_structure(
            "signature d { E/2 }\nstructure A : d { universe = {u, v} ; E = {(u,v)} }"
        )
        assert a == digraph(2, [(0, 1)])
        assert a.element_names == ("u", "v")

    def test_k3(self):
        a = parse_structure(K3_TEXT)
        assert a.n == 3
        assert len(a.rel("E")) == 6
        assert a == clique(3)

    def test_arity_mismatch(self):
        with pytest.raises(ParseError):
            parse_structure(
                "signature d { E/2 }\nstructure A : d { universe = {u,v,w} ; E = {(u,v,w)} }"
            )

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_structure(
                "signature d { E/2 }\nstructure A : d { universe = {u} ; F = {(u,u)} }"
            )

    def test_unknown_element(self):
        with pytest.raises(ParseError):
            parse_structure(
                "signature d { E/2 }\nstructure A : d { universe = {u} ; E = {(u,z)} }"
            )

    def test_position_reported(self):
        try:
            parse_structure("signature d { E/2 }\nstructure A : d { universe = {u} ; E = {(u,z)} }")
        except ParseError as e:
            assert e.line == 2
        else:
            pytest.fail("expected a parse error")

    @pytest.mark.parametrize("constraint", ["x != z", "z != y"])
    def test_unknown_element_in_constraints(self, constraint):
        text = FAMILY_TEXT.replace("x != y", constraint)
        with pytest.raises(ParseError, match="element 'z' not in universe") as err:
            parse_family(text)
        lines = text.splitlines()
        line = next(i for i, ln in enumerate(lines, 1) if constraint in ln)
        column = lines[line - 1].index(constraint) + constraint.index("z") + 1
        assert (err.value.line, err.value.column) == (line, column)

    def test_duplicate_tuples_merge(self):
        a = parse_structure(
            "signature d { E/2 }\nstructure A : d { universe = {u,v} ; E = {(u,v), (u,v)} }"
        )
        assert len(a.rel("E")) == 1

    def test_family(self):
        fam = parse_family(FAMILY_TEXT)
        assert fam.mode_tag == "plain"
        assert fam.lift_arity == 1
        assert len(fam.patterns) == 2
        p2 = fam.patterns[1]
        assert p2.noncollapse == frozenset({(0, 1)})
        assert p2.free_tuples == frozenset({("E", (1, 0))})
        assert fam.patterns[0].cover_mode == "partition"

    def test_self_inequality_rejected(self):
        # a pair (x, x) admits no occurrence, so dropping it would change the pattern
        with pytest.raises(ParseError) as info:
            parse_family(FAMILY_TEXT.replace("x != y", "y != y"))
        assert info.value.line == 8


class TestRoundTrip:
    @pytest.mark.parametrize(
        "struct",
        [digraph(0), digraph(1, [(0, 0)]), clique(3), digraph(4, [(0, 1), (2, 3), (3, 3)])],
    )
    def test_structure_round_trip(self, struct):
        text = serialize_structure(struct, "S")
        back = parse_structure(text)
        assert is_isomorphic(back, struct)
        # serialization is deterministic and stable under re-parsing
        assert serialize_structure(back, "S") == text

    def test_family_round_trip(self):
        fam = parse_family(FAMILY_TEXT)
        text = serialize_family(fam, "mono")
        back = parse_family(text)
        assert len(back.patterns) == len(fam.patterns)
        assert back.mode_tag == fam.mode_tag
        assert serialize_family(back, "mono") == text

    def test_family_with_self_pair_round_trip(self):
        # the pattern carrying (x, x) forbids nothing, so leaving it out keeps the language
        sig = make_signature([("E", 2), ("C1", 1), ("C2", 1)], lift=["C1", "C2"])
        never = Lift(Structure(sig, 1, {"C1": [(0,)]}), 1, "none", frozenset({(0, 0)}))
        pats = [never] + [
            Lift(Structure(sig, 2, {"E": [(0, 1)], c: [(0,), (1,)]}), 1, "none") for c in ("C1", "C2")
        ]
        fam = PatternFamily(sig, tuple(pats), "plain", 1)
        back = parse_family(serialize_family(fam, "two_col"))
        assert len(back.patterns) == 2
        for a in all_structures(DIGRAPH, 3):
            a = Structure(fam.base_sig, a.n, {"E": a.rel("E")})
            assert (fp_membership(a, back) is None) == (fp_membership(a, fam) is None), a

    def test_document_with_multiple_decls(self):
        doc = parse_document(K3_TEXT + "\nstructure P : digraph { universe = {z} ; E = {} }")
        assert set(doc.structures) == {"K3", "P"}
        assert doc.order[0] == ("signature", "digraph")
