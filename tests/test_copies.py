"""Copies and pickles of the public value types equal their originals."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from homkit import (
    FULL,
    DecisionOutcome,
    HomMode,
    Lift,
    PatternFamily,
    SparseParams,
    Structure,
    build_basis,
    canonical_form,
    eval_snp,
    fp_membership,
    hom_exists,
    make_signature,
    parse_snp,
)

ROUND_TRIPS = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
}


def samples():
    """One value of each public value type, built alike in every process:
    a signature, a structure with element names, a mode, a homomorphism, a
    lift, a family, a formula, a decision outcome, a block basis and sparse
    parameters."""
    sig = make_signature([("E", 2)])
    c6 = Structure(sig, 6, {"E": [(x, (x + 1) % 6) for x in range(6)]}, "abcdef")
    k3 = Structure(sig, 3, {"E": [(x, y) for x in range(3) for y in range(3) if x != y]})
    csig = make_signature([("E", 2), ("C1", 1), ("C2", 1), ("C3", 1)], lift=["C1", "C2", "C3"])
    mono = [Lift(Structure(csig, 2, {"E": [(0, 1)], c: [(0,), (1,)]}), 1, "none") for c in ("C1", "C2", "C3")]
    fam = PatternFamily(csig, tuple(mono), "plain", 1)
    phi = parse_snp("snp two { input { E/2 } proof { P/1 } "
                    "clause NOT( E(x,y) & P(x) & P(y) ) ; clause NOT( E(x,y) & !P(x) & !P(y) ) ; }")
    return [
        sig,
        c6,
        HomMode("full", {(0, 1)}, {("E", (0, 0))}),
        hom_exists(c6, k3),
        Lift(Structure(csig, 2, {"E": [(0, 1)], "C1": [(0,)], "C2": [(1,)]}), 1, "partition"),
        fam,
        phi,
        DecisionOutcome("finite_union_csp", templates=(k3,)),
        build_basis(fam),
        SparseParams(3, 4),
    ]


def filled():
    """`samples()` with their caches filled: plans and canonical forms on the
    structures, compiled programs and hashes on the family and formula."""
    values = samples()
    _, c6, _, h, _, fam, phi, *_ = values
    assert hom_exists(c6, c6, FULL) is not None
    canonical_form(c6)
    assert fp_membership(h.target, fam) is not None
    assert eval_snp(phi, c6)
    for value in values:
        hash(value)
    assert c6._cache and "_compiled" in fam.__dict__ and "_compiled" in phi.__dict__
    return values


@pytest.mark.parametrize("how", ROUND_TRIPS)
def test_copies_and_pickles_equal_the_original(how):
    values = filled()
    for value in values:
        again = ROUND_TRIPS[how](value)
        assert type(again) is type(value)
        assert again == value and hash(again) == hash(value), type(value).__name__
    sig, c6, *_ = values
    assert ROUND_TRIPS[how](sig) is sig
    again = ROUND_TRIPS[how](c6)
    assert again.element_names == c6.element_names and again._cache == {}
    # a copy works as a search source and target
    assert hom_exists(again, c6, FULL).mapping == hom_exists(c6, c6, FULL).mapping


def test_unpickled_signature_is_the_interned_one():
    lifted = make_signature([("E", 2), ("C", 1)], lift=["C"])
    assert pickle.loads(pickle.dumps(lifted)) is lifted
    assert pickle.loads(pickle.dumps(lifted.base())) is make_signature([("E", 2)])


def test_pickles_load_under_another_string_hash_seed():
    # cached hashes stay behind: in a process with another seed, every
    # unpickled value equals a fresh build there and hashes as it does
    here = Path(__file__).resolve().parent
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed,
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    check = (
        "import pickle, sys\n"
        "from test_copies import samples\n"
        "assert hash('homkit') != int(sys.argv[1]), 'same string-hash seed'\n"
        "got, fresh = pickle.loads(sys.stdin.buffer.read()), samples()\n"
        "assert got[0] is fresh[0]\n"
        "for x, y in zip(got, fresh, strict=True):\n"
        "    assert x == y and hash(x) == hash(y), type(x).__name__\n"
    )
    run = subprocess.run([sys.executable, "-c", check, str(hash("homkit"))], input=pickle.dumps(filled()),
                         env=env, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
