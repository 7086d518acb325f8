"""High-girth replacements with identical small-target homomorphism behavior.

`sparse_replace` realizes the replacement by a seeded fibered blow-up:
each element becomes a fiber, each tuple a randomly sampled set of fiber
tuples, and cycles shorter than the girth bound are destroyed one random
tuple at a time.  Every candidate is certified before being returned:
girth and the fiber projection structurally, the small-target behavior
against the exhaustive catalog.  Failed attempts re-sample with more
tuples; everything is deterministic in (seed, attempt index).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .enumeration import all_structures
from .errors import GuardExceededError, HomkitError
from .homs import _maps_to, check_homomorphism
from .shape import girth, shortest_cycle
from .structures import PLAIN, Homomorphism, Structure


class AttemptsExhaustedError(HomkitError):
    """No attempt produced a certified candidate; details tell what failed."""

    def __init__(self, message, failures=None, best=None):
        self.failures = failures or []
        self.best = best
        super().__init__(message)


@dataclass(frozen=True)
class SparseParams:
    target_size: int  # bound k on the homomorphism targets to preserve
    min_girth: int  # bound ell on the output girth
    fiber_size: int | None = None  # N; default 16 * |A|
    density: float | None = None  # sampled tuples per input tuple, / N
    seed: int = 0
    max_attempts: int = 64
    size_cap: int = 4096

    def __post_init__(self):
        if self.target_size < 1 or self.min_girth < 2:
            raise ValueError("need target_size >= 1 and min_girth >= 2")
        if self.fiber_size is not None and self.fiber_size < 1:
            raise ValueError("fiber_size must be positive")


def _small_targets(sig, k):
    return list(all_structures(sig, k))


def _first_leak(b: Structure, avoided):
    """The first target in `avoided` that `b` maps to, or None.

    `avoided` holds the small targets that `a` does not map to, in catalog
    order.  Once b -> a holds, this is the first small target on which `a`
    and `b` disagree: every map of `a` composes through b -> a.
    """
    return next((c for c in avoided if _maps_to(b, c)), None)


def _blow_up(a: Structure, n_fiber: int, per_tuple: int, rng: random.Random) -> Structure:
    rels = {name: set() for name, _ in a.sig.symbols}
    for si, t in sorted(a.all_tuples()):
        name = a.sig.names[si]
        for _ in range(per_tuple):
            rels[name].add(tuple(x * n_fiber + rng.randrange(n_fiber) for x in t))
    return Structure(a.sig, a.n * n_fiber, rels)


def _girth_surgery(b: Structure, min_girth: int, rng: random.Random, budget: int):
    """Delete one random tuple per short cycle until none remain, or give up."""
    deleted = 0
    while True:
        found = shortest_cycle(b, shorter_than=min_girth)
        if found is None:
            return b
        _, tuples = found
        si, tp = sorted(tuples)[rng.randrange(len(tuples))]
        name = b.sig.names[si]
        b = b.with_relations({name: b.rel(name) - {tp}})
        deleted += 1
        if deleted > budget:
            return None


def sparse_replace(a: Structure, params: SparseParams) -> Structure:
    """A certified girth >= min_girth structure behaving like `a` on small targets."""
    if a.n == 0:
        raise ValueError("sparse_replace needs a nonempty structure")
    if girth(a) >= params.min_girth:
        return a

    avoided = [c for c in _small_targets(a.sig, params.target_size) if not _maps_to(a, c)]
    n_fiber = params.fiber_size if params.fiber_size is not None else 16 * a.n
    if a.n * n_fiber > params.size_cap:
        raise GuardExceededError(
            f"blow-up universe {a.n * n_fiber} exceeds the size cap {params.size_cap}"
        )
    base_density = (
        params.density if params.density is not None else params.min_girth * a.n / n_fiber
    )
    base_count = max(1, math.ceil(base_density * n_fiber))

    failures = []
    best = None
    for attempt in range(params.max_attempts):
        rng = random.Random(params.seed * 1_000_003 + attempt)
        per_tuple = base_count * (attempt + 1)
        b = _blow_up(a, n_fiber, per_tuple, rng)
        total = b.total_tuples()
        b = _girth_surgery(b, params.min_girth, rng, budget=max(1, total // 2))
        if b is None:
            failures.append((attempt, "surgery deleted too many tuples"))
            continue
        proj = Homomorphism(b, a, tuple(x // n_fiber for x in range(b.n)), PLAIN)
        ok, why = check_homomorphism(proj)
        if not ok:
            failures.append((attempt, f"projection broken: {why}"))
            continue
        bad = _first_leak(b, avoided)
        if bad is not None:
            failures.append((attempt, f"maps into a {bad.n}-point target that a avoids"))
            best = b
            continue
        return b
    raise AttemptsExhaustedError(
        f"no certified candidate within {params.max_attempts} attempts",
        failures=failures,
        best=best,
    )


def verify_sparse(a: Structure, b: Structure, k: int, ell: int):
    """Exhaustively check the three replacement clauses; first failure wins.

    Returns (True, None) or (False, (clause_name, witness)).
    """
    found = shortest_cycle(b, shorter_than=ell)
    if found is not None:
        return False, ("girth", found)
    if not _maps_to(b, a):
        return False, ("projection", None)
    bad = _first_leak(b, (c for c in _small_targets(a.sig, k) if not _maps_to(a, c)))
    if bad is not None:
        return False, ("small_targets", bad)
    return True, None
