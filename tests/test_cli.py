import json

import pytest
from click.testing import CliRunner

from homkit.cli import main
from homkit.homs import hom_exists
from homkit.structures import Structure, is_isomorphic
from homkit.textio import parse_family, parse_structure

K2 = """
signature d { E/2 }
structure K2 : d { universe = {a,b} ; E = {(a,b),(b,a)} }
"""
K3 = """
signature d { E/2 }
structure K3 : d { universe = {a,b,c} ; E = {(a,b),(b,a),(a,c),(c,a),(b,c),(c,b)} }
"""
TRIANGLE = """
signature d { E/2 }
structure C3 : d { universe = {a,b,c} ; E = {(a,b),(b,c),(c,a)} }
"""
ARC_TREE = """
signature d { E/2 }
structure arc : d { universe = {a,b} ; E = {(a,b)} }
"""
POINT = """
signature d { E/2 }
structure pt : d { universe = {a} ; E = {} }
"""
THREE_COL_FAMILY = """
signature csig { E/2 C1/1 lift C2/1 lift C3/1 lift }
family three_col : csig {
  mode = plain ;
  lift_arity = 1 ;
  pattern P1 { universe = {x,y} ; E = {(x,y)} ; C1 = {x,y} }
  pattern P2 { universe = {x,y} ; E = {(x,y)} ; C2 = {x,y} }
  pattern P3 { universe = {x,y} ; E = {(x,y)} ; C3 = {x,y} }
}
"""
TRIANGLE_FREE_FAMILY = """
signature tsig { E/2 C/1 lift }
family tri_free : tsig {
  mode = plain ;
  lift_arity = 1 ;
  pattern T { universe = {x,y,z} ; E = {(x,y),(y,z),(z,x)} ; C = {x,y,z} }
}
"""
SNP_3COL = """
snp three_col {
  input { E/2 }
  proof { C1/1 C2/1 C3/1 }
  clause NOT( E(x,y) & C1(x) & C1(y) ) ;
  clause NOT( E(x,y) & C2(x) & C2(y) ) ;
  clause NOT( E(x,y) & C3(x) & C3(y) ) ;
  clause NOT( !C1(z) & !C2(z) & !C3(z) ) ;
}
"""
SNP_INEQ = """
snp witheq {
  input { E/2 }
  proof { P/1 }
  clause NOT( E(x,y) & P(x) & P(y) & x != y ) ;
}
"""


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in {
        "k2": K2,
        "k3": K3,
        "triangle": TRIANGLE,
        "arc": ARC_TREE,
        "point": POINT,
        "three_col.fam": THREE_COL_FAMILY,
        "tri_free.fam": TRIANGLE_FREE_FAMILY,
        "three_col.snp": SNP_3COL,
        "ineq.snp": SNP_INEQ,
    }.items():
        p = tmp_path / (name if "." in name else f"{name}.st")
        p.write_text(text)
        paths[name] = str(p)
    return paths


def run(*args):
    return CliRunner().invoke(main, list(args))


def run_json(*args):
    res = CliRunner().invoke(main, ["--format", "machine", *args])
    payload = json.loads(res.output) if res.output.strip() else {}
    return res, payload


class TestHom:
    def test_yes(self, files):
        res = run("hom", files["k2"], files["k3"])
        assert res.exit_code == 0
        assert "->" in res.output

    def test_no(self, files):
        res = run("hom", files["k3"], files["k2"])
        assert res.exit_code == 1

    def test_malformed(self, tmp_path):
        bad = tmp_path / "bad.st"
        bad.write_text("structure ohno")
        res = run("hom", str(bad), str(bad))
        assert res.exit_code == 2

    def test_machine_format(self, files):
        res, payload = run_json("hom", files["k2"], files["k3"])
        assert res.exit_code == 0
        assert payload["exists"] is True
        assert payload["exit_code"] == 0

    def test_internal_error_exits_2(self, files, monkeypatch):
        # exit 1 means "no", so a crash in the library must not produce it
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("homkit.cli._homs.hom_exists", crash)
        res = CliRunner().invoke(main, ["--format", "machine", "hom", files["k2"], files["k3"]])
        assert res.exit_code == 2
        payload = json.loads(res.stdout)
        assert payload["error_kind"] == "internal"
        assert payload["exit_code"] == 2
        assert "RuntimeError: boom" in payload["error"]
        assert "Traceback" in res.stderr
        res = run("hom", files["k2"], files["k3"])
        assert res.exit_code == 2
        assert "error (internal)" in res.stdout


    @pytest.mark.parametrize("command", ["hom", "snp-eval"])
    def test_missing_file_exits_2(self, files, tmp_path, command):
        first = files["k2"] if command == "hom" else files["three_col.snp"]
        res, payload = run_json(command, first, str(tmp_path / "missing.st"))
        assert res.exit_code == 2
        assert payload["error_kind"] == "FileNotFoundError"
        assert payload["command"] == command


class TestUnary:
    def test_girth_triangle(self, files):
        res = run("girth", files["triangle"])
        assert res.exit_code == 0
        assert res.output.strip() == "3"

    def test_girth_forest(self, files):
        res = run("girth", files["arc"])
        assert res.output.strip() == "infinity"

    def test_core(self, files):
        res, payload = run_json("core", files["k3"])
        assert res.exit_code == 0
        assert payload["size"] == 3
        assert parse_structure(payload["core"]).n == 3

    def test_blocks(self, files):
        res, payload = run_json("blocks", files["triangle"])
        assert payload["count"] == 1

    def test_dual_of_arc(self, files):
        res, payload = run_json("dual", files["arc"])
        assert res.exit_code == 0
        d = parse_structure(payload["dual"])
        assert d.n == 1 and not d.rel("E")

    def test_dual_of_8_arc_path(self, tmp_path):
        names = [f"v{i}" for i in range(9)]
        arcs = ",".join(f"({u},{v})" for u, v in zip(names, names[1:]))
        path = tmp_path / "path8.st"
        path.write_text(f"signature d {{ E/2 }}\nstructure p8 : d {{ universe = {{{','.join(names)}}} ; E = {{{arcs}}} }}\n")
        res, payload = run_json("dual", str(path))
        assert res.exit_code == 0
        d = parse_structure(payload["dual"])
        tournament = Structure(d.sig, 8, {"E": [(i, j) for i in range(8) for j in range(i + 1, 8)]})
        assert is_isomorphic(d, tournament)

    def test_dual_rejects_cycle(self, files):
        res = run("dual", files["triangle"])
        assert res.exit_code == 2


class TestFamilies:
    def test_fp_decide_three_col(self, files):
        res, payload = run_json("fp-decide", files["three_col.fam"])
        assert res.exit_code == 0
        assert payload["verdict"] == "finite_union_csp"
        (template,) = payload["templates"]
        assert parse_structure(template).n == 3

    def test_fp_decide_triangle_free(self, files):
        res, payload = run_json("fp-decide", files["tri_free.fam"])
        assert res.exit_code == 1
        assert payload["verdict"] == "not_finite_union"
        assert parse_structure(payload["witness"]).n == 3

    def test_fp_decide_long_path(self, tmp_path):
        # an 8-element one-colour path is too long for the default dual caps,
        # so the verdict comes without templates
        elems = [f"v{i}" for i in range(8)]
        arcs = ",".join(f"({x},{y})" for x, y in zip(elems, elems[1:]))
        fam = tmp_path / "path8.fam"
        fam.write_text(
            "signature psig { E/2 C/1 lift }\nfamily path8 : psig { mode = plain ; lift_arity = 1 ;\n"
            "  pattern P { universe = {%s} ; E = {%s} ; C = {%s} }\n}\n" % (",".join(elems), arcs, ",".join(elems))
        )
        res, payload = run_json("fp-decide", str(fam))
        assert res.exit_code == 0
        assert payload["verdict"] == "finite_union_csp"
        assert payload["note"].startswith("duality cap")
        assert "templates" not in payload

    def test_fp_decide_malformed(self, tmp_path):
        bad = tmp_path / "bad.fam"
        bad.write_text("")
        res = run("fp-decide", str(bad))
        assert res.exit_code == 2

    def test_fp_member(self, files):
        res, payload = run_json("fp-member", files["three_col.fam"], files["k3"])
        assert res.exit_code == 0
        witness = parse_structure(payload["witness"])
        assert witness.n == 3
        res2 = run("fp-member", files["three_col.fam"], files["k3"].replace("k3", "k3"))
        assert res2.exit_code == 0

    def test_fp_member_negative(self, files, tmp_path):
        k4 = tmp_path / "k4.st"
        arcs = ",".join(f"(v{i},v{j})" for i in range(4) for j in range(4) if i != j)
        k4.write_text(
            "signature d { E/2 }\nstructure K4 : d { universe = {v0,v1,v2,v3} ; E = {%s} }" % arcs
        )
        res = run("fp-member", files["three_col.fam"], str(k4))
        assert res.exit_code == 1

    def test_fp_member_lift_arity_mismatch(self, files, tmp_path):
        # unary lift symbols under lift_arity = 2 are malformed input, not a "no"
        bad = tmp_path / "bad.fam"
        bad.write_text(THREE_COL_FAMILY.replace("lift_arity = 1", "lift_arity = 2"))
        res = run("fp-member", str(bad), files["k3"])
        assert res.exit_code == 2
        empty = tmp_path / "empty.fam"
        empty.write_text(
            "signature csig { E/2 C1/1 lift C2/1 lift }\nfamily f : csig { lift_arity = 2 ; }"
        )
        res = run("fp-member", str(empty), files["k3"])
        assert res.exit_code == 2


    def test_fp_member_self_inequality(self, files, tmp_path):
        bad = tmp_path / "bad.fam"
        bad.write_text(TRIANGLE_FREE_FAMILY.replace("C = {x,y,z} }", "C = {x,y,z} ; constraints { x != x } }"))
        res, payload = run_json("fp-member", str(bad), files["k3"])
        assert res.exit_code == 2
        assert payload["error_kind"] == "ParseError"


class TestSnp:
    def test_compile_general(self, files):
        res, payload = run_json("snp-compile", files["three_col.snp"], "--category", "general")
        assert res.exit_code == 0
        fam = parse_family(payload["family"])
        assert fam.mode_tag == "plain"
        assert len(fam.patterns) >= 3

    def test_compile_restriction_violation(self, files):
        res, payload = run_json("snp-compile", files["ineq.snp"], "--category", "general")
        assert res.exit_code == 1
        assert "restriction_violation" in payload

    def test_compile_parse_error(self, tmp_path):
        bad = tmp_path / "bad.snp"
        bad.write_text("snp broken {")
        res = run("snp-compile", str(bad), "--category", "general")
        assert res.exit_code == 2

    def test_eval(self, files):
        assert run("snp-eval", files["three_col.snp"], files["k3"]).exit_code == 0

    def test_eval_false(self, files, tmp_path):
        k4 = tmp_path / "k4.st"
        arcs = ",".join(f"(v{i},v{j})" for i in range(4) for j in range(4) if i != j)
        k4.write_text(
            "signature d { E/2 }\nstructure K4 : d { universe = {v0,v1,v2,v3} ; E = {%s} }" % arcs
        )
        assert run("snp-eval", files["three_col.snp"], str(k4)).exit_code == 1


class TestPipelines:
    def test_fv_reduce(self, files):
        res, payload = run_json("fv-reduce", files["tri_free.fam"], files["k3"])
        assert res.exit_code == 0
        image = parse_structure(payload["image"])
        assert image.n == 3
        gfam = parse_family(payload["gprime"])
        assert len(gfam.patterns) == 1
        assert payload["girth_threshold"] == 3

    def test_sparse(self, files):
        res, payload = run_json(
            "sparse", files["k3"], "--k", "2", "--ell", "4", "--seed", "0"
        )
        assert res.exit_code == 0
        b = parse_structure(payload["result"])
        assert b.n == payload["size"]

    def test_verify_duality(self, files):
        res = run(
            "verify", "duality", "--forb", files["arc"], "--dual", files["point"], "-n", "3"
        )
        assert res.exit_code == 0

    def test_verify_duality_fails(self, files):
        res, payload = run_json(
            "verify", "duality", "--forb", files["arc"], "--dual", files["arc"], "-n", "2"
        )
        assert res.exit_code == 1
        assert payload["verified"] is False
        assert "counterexample" in payload

    def test_verify_shadow(self, files):
        res = run(
            "verify", "shadow", "--family", files["three_col.fam"],
            "--template", files["k3"], "-n", "3",
        )
        assert res.exit_code == 0

    def test_verify_shadow_fails(self, files):
        res, payload = run_json(
            "verify", "shadow", "--family", files["three_col.fam"],
            "--template", files["k2"], "-n", "3",
        )
        assert res.exit_code == 1
        assert payload["verified"] is False
        # the counterexample is 3-colourable but not 2-colourable
        cex = parse_structure(payload["counterexample"])
        assert hom_exists(cex, parse_structure(K3)) is not None
        assert hom_exists(cex, parse_structure(K2)) is None

    def test_verify_sparse(self, files, tmp_path):
        from homkit.sparse import SparseParams, sparse_replace
        from homkit.textio import serialize_structure

        b = sparse_replace(parse_structure(K3), SparseParams(2, 4, seed=0))
        bpath = tmp_path / "b.st"
        bpath.write_text(serialize_structure(b, "B"))
        res = run(
            "verify", "sparse", "--source", files["k3"], "--replacement", str(bpath),
            "--k", "2", "--ell", "4",
        )
        assert res.exit_code == 0

    def test_machine_reports_round_trip(self, files):
        res, payload = run_json("core", files["k3"])
        assert parse_structure(payload["core"]).n == 3
