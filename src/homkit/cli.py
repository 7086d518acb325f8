"""Command-line front end: decision pipelines over structure and formula files.

Exit codes follow the answer semantics: 0 = yes/success, 1 = no/negative,
2 = malformed input, an unreadable file, an exceeded size guard, or an
internal error.  One policy, in the command group, covers every command:
toolkit errors, `OSError` and `ValueError` are reported under their class
name as `error_kind`; any other exception is reported as `error_kind:
internal` with a traceback on stderr, since a crash must never exit 1,
which would read as "no".  `--format
machine` emits one JSON document mirroring the human report; embedded
structures are serialized in the regular file grammar and re-parseable.
"""

from __future__ import annotations

import json
import math
import traceback

import click

from . import duality as _duality
from . import fv as _fv
from . import homs as _homs
from . import patterns as _patterns
from . import shape as _shape
from . import snp as _snp
from . import sparse as _sparse
from . import textio
from .errors import HomkitError
from .structures import mode_from_tag


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_structure(path):
    return textio.parse_structure(_read(path))


def _load_family(path):
    return textio.parse_family(_read(path))


class Report:
    def __init__(self, command):
        self.command = command
        self.lines = []
        self.data = {"command": command}

    def say(self, text):
        self.lines.append(text)

    def put(self, key, value):
        self.data[key] = value

    def embed_structure(self, key, struct, name="S"):
        text = textio.serialize_structure(struct, name)
        self.data[key] = text
        return text

    def finish(self, ctx, code):
        if ctx.obj["format"] == "machine":
            self.data["exit_code"] = code
            click.echo(json.dumps(self.data, sort_keys=True))
        else:
            for line in self.lines:
                click.echo(line)
        ctx.exit(code)


def _fail(ctx, command, exc, kind=None):
    rep = Report(command)
    kind = kind or type(exc).__name__
    rep.say(f"error ({kind}): {exc}")
    rep.put("error", str(exc))
    rep.put("error_kind", kind)
    rep.finish(ctx, 2)


class _Group(click.Group):
    """Reports an exception escaping a command with exit 2, never 1.

    Toolkit errors, unreadable files and malformed values are reported by
    class name; anything else is an internal error, with a traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.ClickException, click.Abort):
            raise
        except (HomkitError, OSError, ValueError) as e:
            _fail(ctx, ctx.invoked_subcommand, e)
        except Exception as e:
            click.echo(traceback.format_exc(), err=True, nl=False)
            _fail(ctx, ctx.invoked_subcommand, f"{type(e).__name__}: {e}", "internal")


@click.group(cls=_Group)
@click.option("--format", "fmt", type=click.Choice(["human", "machine"]), default="human")
@click.pass_context
def main(ctx, fmt):
    """Homomorphism toolkit for finite relational structures."""
    ctx.ensure_object(dict)
    ctx.obj["format"] = fmt


@main.command()
@click.argument("source_file")
@click.argument("target_file")
@click.option("--mode", type=click.Choice(["plain", "injective", "full"]), default="plain")
@click.pass_context
def hom(ctx, source_file, target_file, mode):
    """Decide SOURCE -> TARGET; print a witness map when one exists."""
    rep = Report("hom")
    a = _load_structure(source_file)
    b = _load_structure(target_file)
    h = _homs.hom_exists(a, b, mode_from_tag(mode))
    if h is None:
        rep.say("no homomorphism")
        rep.put("exists", False)
        rep.finish(ctx, 1)
    rep.say("homomorphism: " + " ".join(f"{a.name_of(x)}->{b.name_of(v)}" for x, v in enumerate(h.mapping)))
    rep.put("exists", True)
    rep.put("mapping", list(h.mapping))
    rep.finish(ctx, 0)


@main.command()
@click.argument("structure_file")
@click.pass_context
def core(ctx, structure_file):
    """Print the core of the structure."""
    rep = Report("core")
    a = _load_structure(structure_file)
    c = _homs.core_of(a)
    text = textio.serialize_structure(c, "core")
    rep.say(text.rstrip())
    rep.put("size", c.n)
    rep.embed_structure("core", c, "core")
    rep.finish(ctx, 0)


@main.command()
@click.argument("structure_file")
@click.pass_context
def girth(ctx, structure_file):
    """Print the girth (the word `infinity` for forests)."""
    rep = Report("girth")
    a = _load_structure(structure_file)
    g = _shape.girth(a)
    out = "infinity" if g == math.inf else str(g)
    rep.say(out)
    rep.put("girth", out)
    rep.put("is_forest", g == math.inf)
    rep.finish(ctx, 0)


@main.command()
@click.argument("structure_file")
@click.pass_context
def blocks(ctx, structure_file):
    """List the biconnected components."""
    rep = Report("blocks")
    a = _load_structure(structure_file)
    blks = _shape.biconnected_components(a)
    rep.put("count", len(blks))
    out = []
    for i, b in enumerate(blks):
        names = [a.name_of(x) for x in b.elements]
        rep.say(f"block {i}: elements {{{', '.join(names)}}}, {len(b.tuples)} tuples")
        out.append({"elements": list(b.elements), "tuples": [[si, list(t)] for si, t in b.tuples]})
    rep.put("blocks", out)
    rep.finish(ctx, 0)


@main.command()
@click.argument("tree_file")
@click.option(
    "--universe-cap",
    default=_duality.DEFAULT_UNIVERSE_CAP,
    show_default=True,
    help="most elements of the dual before it is cut down to its core (the product of each tree element's tuple count)",
)
@click.pass_context
def dual(ctx, tree_file, universe_cap):
    """Emit the dual template of a tree obstruction."""
    rep = Report("dual")
    t = _load_structure(tree_file)
    d = _duality.tree_dual(t, universe_cap)
    rep.say(textio.serialize_structure(d, "dual").rstrip())
    rep.embed_structure("dual", d, "dual")
    rep.finish(ctx, 0)


@main.command("fp-decide")
@click.argument("family_file")
@click.pass_context
def fp_decide(ctx, family_file):
    """Is the family's language a finite union of CSPs?"""
    rep = Report("fp-decide")
    fam = _load_family(family_file)
    out = _patterns.decide_finite_union_csp(fam)
    rep.put("verdict", out.verdict)
    if out.note:
        rep.say(f"note: {out.note}")
        rep.put("note", out.note)
    if out.verdict == "finite_union_csp":
        rep.say("finite union of CSP languages")
        if out.templates is not None:
            for i, t in enumerate(out.templates):
                rep.say(textio.serialize_structure(t, f"T{i}").rstrip())
            rep.put(
                "templates",
                [textio.serialize_structure(t, f"T{i}") for i, t in enumerate(out.templates)],
            )
        rep.finish(ctx, 0)
    rep.say("not a finite union of CSP languages")
    rep.say("cyclic core pattern witness:")
    rep.say(textio.serialize_structure(out.witness.struct, "witness").rstrip())
    rep.put("witness", textio.serialize_structure(out.witness.struct, "witness"))
    rep.put("witness_cycle", [[si, list(t)] for si, t in (out.witness_cycle or ())])
    rep.finish(ctx, 1)


@main.command("fp-member")
@click.argument("family_file")
@click.argument("structure_file")
@click.pass_context
def fp_member(ctx, family_file, structure_file):
    """Does the structure belong to the family's language?"""
    rep = Report("fp-member")
    fam = _load_family(family_file)
    a = _load_structure(structure_file)
    w = _patterns.fp_membership(a, fam)
    if w is None:
        rep.say("not a member: every lift admits a forbidden pattern")
        rep.put("member", False)
        rep.finish(ctx, 1)
    rep.say("member; witness lift:")
    rep.say(textio.serialize_structure(w.struct, "witness").rstrip())
    rep.put("member", True)
    rep.embed_structure("witness", w.struct, "witness")
    rep.finish(ctx, 0)


@main.command("snp-compile")
@click.argument("formula_file")
@click.option("--category", type=click.Choice(["general", "injective", "full"]), required=True)
@click.pass_context
def snp_compile(ctx, formula_file, category):
    """Compile a formula into a forbidden-lift family."""
    rep = Report("snp-compile")
    phi = _snp.parse_snp(_read(formula_file))
    translate = {
        "general": _snp.to_lifts_general,
        "injective": _snp.to_lifts_injective,
        "full": _snp.to_lifts_full,
    }[category]
    try:
        fam = translate(phi)
    except ValueError as e:
        rep.say(f"restriction violated: {e}")
        rep.put("restriction_violation", str(e))
        report = _snp.restriction_report(phi)
        rep.put(
            "report",
            {
                "monotone": report.monotone,
                "monadic": report.monadic,
                "no_inequality": report.no_inequality,
            },
        )
        rep.finish(ctx, 1)
    text = textio.serialize_family(fam, "compiled")
    rep.say(text.rstrip())
    rep.put("family", text)
    rep.put("patterns", len(fam.patterns))
    rep.finish(ctx, 0)


@main.command("snp-eval")
@click.argument("formula_file")
@click.argument("structure_file")
@click.pass_context
def snp_eval(ctx, formula_file, structure_file):
    """Model-check a formula on a structure."""
    rep = Report("snp-eval")
    phi = _snp.parse_snp(_read(formula_file))
    a = _load_structure(structure_file)
    value = _snp.eval_snp(phi, a)
    rep.say("satisfied" if value else "not satisfied")
    rep.put("satisfied", value)
    rep.finish(ctx, 0 if value else 1)


@main.command("fv-reduce")
@click.argument("family_file")
@click.argument("structure_file")
@click.pass_context
def fv_reduce(ctx, family_file, structure_file):
    """Translate an instance into the block-relation CSP."""
    rep = Report("fv-reduce")
    fam = _load_family(family_file)
    a = _load_structure(structure_file)
    basis = _fv.build_basis(fam)
    image, gfam, templates = _fv.reduce_forward(a, fam, basis)
    rep.say(f"basis blocks: {len(basis.blocks)}; derived patterns: {len(gfam.patterns)}")
    rep.say(textio.serialize_structure(image, "image").rstrip())
    rep.put("image", textio.serialize_structure(image, "image"))
    rep.put("gprime", textio.serialize_family(gfam, "gprime"))
    rep.put("girth_threshold", _fv.girth_threshold(fam))
    if templates is None:
        rep.say("templates withheld: duality size cap exceeded")
        rep.put("templates", None)
    else:
        rep.put(
            "templates",
            [textio.serialize_structure(t, f"T{i}") for i, t in enumerate(templates)],
        )
        for i, t in enumerate(templates):
            rep.say(textio.serialize_structure(t, f"T{i}").rstrip())
    rep.finish(ctx, 0)


@main.command()
@click.argument("structure_file")
@click.option("--k", "target_size", type=int, required=True, help="preserve targets up to this size")
@click.option("--ell", "min_girth", type=int, required=True, help="required girth")
@click.option("--fiber-size", type=int, default=None)
@click.option("--density", type=float, default=None)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--attempts", type=int, default=64, show_default=True)
@click.pass_context
def sparse(ctx, structure_file, target_size, min_girth, fiber_size, density, seed, attempts):
    """Emit a certified high-girth replacement."""
    rep = Report("sparse")
    a = _load_structure(structure_file)
    params = _sparse.SparseParams(
        target_size, min_girth, fiber_size, density, seed, attempts
    )
    b = _sparse.sparse_replace(a, params)
    rep.say(textio.serialize_structure(b, "sparse").rstrip())
    rep.embed_structure("result", b, "sparse")
    rep.put("size", b.n)
    rep.finish(ctx, 0)


@main.command()
@click.argument("kind", type=click.Choice(["duality", "shadow", "sparse"]))
@click.option("--forb", multiple=True, help="obstruction structure file (duality)")
@click.option("--dual", "duals", multiple=True, help="template structure file (duality)")
@click.option("--family", "family_file", default=None, help="family file (shadow)")
@click.option("--template", "templates", multiple=True, help="template file (shadow)")
@click.option("--source", default=None, help="original structure (sparse)")
@click.option("--replacement", default=None, help="replacement structure (sparse)")
@click.option("--k", "target_size", type=int, default=None)
@click.option("--ell", "min_girth", type=int, default=None)
@click.option("-n", "--max-size", type=int, default=4, show_default=True)
@click.pass_context
def verify(ctx, kind, forb, duals, family_file, templates, source, replacement, target_size, min_girth, max_size):
    """Brute-force checks of duality, shadow duality, or sparse replacement."""
    rep = Report(f"verify-{kind}")
    if kind == "duality":
        f = [_load_structure(p) for p in forb]
        d = [_load_structure(p) for p in duals]
        ok, cex = _duality.verify_duality(f, d, max_size)
    elif kind == "shadow":
        if family_file is None:
            raise click.UsageError("verify shadow needs --family")
        fam = _load_family(family_file)
        t = [_load_structure(p) for p in templates]
        ok, cex = _patterns.verify_shadow_duality(fam, t, max_size)
    else:
        if source is None or replacement is None or target_size is None or min_girth is None:
            raise click.UsageError("verify sparse needs --source --replacement --k --ell")
        a = _load_structure(source)
        b = _load_structure(replacement)
        ok, cex = _sparse.verify_sparse(a, b, target_size, min_girth)
        if not ok:
            clause, witness = cex
            rep.put("failed_clause", clause)
            cex = witness if hasattr(witness, "sig") else None
    if ok:
        rep.say("verified")
        rep.put("verified", True)
        rep.finish(ctx, 0)
    rep.say("failed")
    rep.put("verified", False)
    if cex is not None and hasattr(cex, "sig"):
        rep.say("counterexample:")
        rep.say(textio.serialize_structure(cex, "counterexample").rstrip())
        rep.embed_structure("counterexample", cex, "counterexample")
    rep.finish(ctx, 1)


if __name__ == "__main__":
    main()
