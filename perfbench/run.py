"""Run one benchmark workload against homkit and print its metrics.

    python3 perfbench/run.py --workload hom-grid --seed 1 --seconds 20 --trace 0

The command runs from the root of a checkout and imports homkit from its
`src` directory.  It runs whole rounds of operations, one call at a time in
this one process, until `--seconds` have passed.  Each call is timed on its
own with `perf_counter`; its answer is checked after the clock stops.  An
operation's time is its least over the rounds.  Between rounds, spread over
the run, the workload is set up several times (a fresh import of homkit,
catalog warm-up, input generation from the seed); `setup_s` is the median.
Timing metrics are scaled to a reference host by a fixed loop timed after
every round (see `timed_rounds`).

With `--trace 1` the run is made of pairs instead, until `--seconds` have
passed: homkit is set up and one untraced round runs, and it is set up
again with every public function of its layer modules wrapped and one
traced round runs, the two in turn first.  Each per-layer metric is the
median over the pairs of its value for the traced set-up and round.

The last line of standard output is one JSON object: `correct`,
`attempted`, `failed` and the metrics.  `attempted` is the number of
operations in a round and `failed` the number of them that failed in any
round, so neither depends on how many rounds fit in the run.  A fuller
record of the run, with the totals over all rounds, goes to
`perfbench/results/`.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 21


def homkit_modules():
    """homkit's entries in `sys.modules`, as a new dict."""
    return {name: m for name, m in sys.modules.items() if name == "homkit" or name.startswith("homkit.")}


def fresh_homkit():
    """Import homkit from scratch, so that each set-up pays for the import."""
    from tracer import LAYERS

    for name in homkit_modules():
        del sys.modules[name]
    hk = importlib.import_module("homkit")
    for layer in LAYERS:  # enumeration is otherwise imported lazily
        importlib.import_module(f"homkit.{layer}")
    return hk


def set_up(workload, seed, tracer=None):
    """Import, optionally trace, warm the catalog and generate inputs; returns (hk, state)."""
    import workloads

    setup_fn, _ = workloads.WORKLOADS[workload]
    hk = fresh_homkit()
    if tracer is not None:
        tracer.install(hk)
    sig = hk.make_signature([("E", 2)])
    for n in range(5):
        hk.enumeration.catalog_masks(sig, n)
    return hk, setup_fn(hk, workloads.new_rng(seed, workload))


class Tally:
    """Outcomes of the timed operations of a run."""

    def __init__(self):
        self.best = []  # per operation of a round: its least time over the rounds so far
        self.failing = set()  # indices within a round of operations that failed
        self.attempted = 0  # totals over all rounds
        self.failed = 0
        self.wrong = []  # (op name, reason) for checks that failed
        self.by_name = {}  # op name -> [attempted, seconds]

    def run_round(self, ops) -> float:
        """Time each op, then check its answer; returns the round's summed op time."""
        clock = time.perf_counter
        if len(self.best) != len(ops):
            self.best = [float("inf")] * len(ops)
        total = 0.0
        for index, op in enumerate(ops):
            start = clock()
            try:
                result = op.call()
            except op.expect or ():
                total += self._count(index, op.name, clock() - start, failed=True)
                continue
            except Exception:
                total += self._count(index, op.name, clock() - start, failed=True)
                self.wrong.append((op.name, traceback.format_exc(limit=3)))
                continue
            total += self._count(index, op.name, clock() - start)
            if not op.check(result):
                self.wrong.append((op.name, "answer failed its check"))
        return total

    def _count(self, index, name, elapsed, failed=False):
        self.attempted += 1
        if failed:
            self.failed += 1
            self.failing.add(index)
        if elapsed < self.best[index]:
            self.best[index] = elapsed
        entry = self.by_name.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += elapsed
        return elapsed


def run(workload, seed, seconds, trace):
    import workloads

    _, ops_fn = workloads.WORKLOADS[workload]
    memo = {}
    tally = Tally()
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    if trace:
        metrics = traced_pairs(workload, seed, seconds, ops_fn, memo, tally, record)
    else:
        metrics = timed_rounds(workload, seed, seconds, ops_fn, memo, tally, record)
    for name, why in tally.wrong[:20]:
        print(f"check failed: {name}: {why}", file=sys.stderr)
    result = {
        "correct": not tally.wrong,
        "attempted": len(tally.best),
        "failed": len(tally.failing),
        "metrics": metrics,
    }
    record.update(result, attempted_total=tally.attempted, failed_total=tally.failed, ops_by_name=tally.by_name)
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    (out / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


# The least and the median time of `reference_work` in a run on the host
# that the reference figures in README.md come from (an Intel Xeon vCPU at
# 2.1 GHz, Python 3.11.7).
REFERENCE_LEAST_S = 0.00085
REFERENCE_MEDIAN_S = 0.0012
REFERENCE_SAMPLES = 5  # after every round


def reference_work():
    """A fixed piece of pure-Python work of the kind homkit does: tuples, sets and dict updates."""
    seen = set()
    table = {}
    for i in range(3000):
        t = (i % 97, i % 89)
        if t not in seen:
            seen.add(t)
        table[t] = table.get(t, 0) + 1
    return len(seen)


def timed_set_up(workload, seed):
    """Time one untraced set-up; returns (seconds, hk, state)."""
    gc.collect()  # the previous set-up's garbage is not this one's cost
    start = time.perf_counter()
    hk, state = set_up(workload, seed)
    return time.perf_counter() - start, hk, state


def timed_rounds(workload, seed, seconds, ops_fn, memo, tally, record):
    """Untraced rounds for `seconds`, with set-ups spread over the run; returns the end-to-end metrics.

    Every round attempts the same operations, and an operation's time is
    its least over the rounds: on a shared machine another process can only
    add to a measured time.  The set-ups are spread over the run so that
    their median meets the machine in the same states as the rounds.

    The speed of a shared host also drifts between runs a minute apart.  A
    fixed loop, timed five times after every round, measures that drift,
    and the timing metrics are scaled to the host the reference figures
    come from: the operation times by REFERENCE_LEAST_S over the loop's
    least time, the set-up time by REFERENCE_MEDIAN_S over its median.
    """
    elapsed, hk, state = timed_set_up(workload, seed)
    setups = [elapsed]
    rounds = []
    reference = []
    clock = time.perf_counter
    start = clock()
    while not rounds or clock() - start < seconds:
        rounds.append(tally.run_round(ops_fn(hk, state, memo)))
        if len(rounds) == 1:
            # the checkers' memo and the inputs live for the whole run; out
            # of the collector's way, they add no collection time to an op
            gc.collect()
            gc.freeze()
        for _ in range(REFERENCE_SAMPLES):
            ref_start = clock()
            reference_work()
            reference.append(clock() - ref_start)
        due = 1 + (SETUP_REPEATS - 1) * min((clock() - start) / seconds, 1)
        while len(setups) < due:
            # homkit imports some modules inside functions, so the rounds'
            # modules go back into sys.modules after each extra set-up
            saved = homkit_modules()
            setups.append(timed_set_up(workload, seed)[0])
            for name in homkit_modules():
                del sys.modules[name]
            sys.modules.update(saved)
    gc.unfreeze()

    best = [t for i, t in enumerate(tally.best) if i not in tally.failing]
    unscaled = {
        "ops_per_s": len(best) / sum(tally.best),
        "op_p50_ms": statistics.median(best) * 1e3,
        "op_p90_ms": statistics.quantiles(best, n=10)[8] * 1e3,
        "setup_s": statistics.median(setups),
    }
    op_scale = REFERENCE_LEAST_S / min(reference)
    setup_scale = REFERENCE_MEDIAN_S / statistics.median(reference)
    metrics = {
        "ops_per_s": {"value": unscaled["ops_per_s"] / op_scale, "unit": "op/s"},
        "op_p50_ms": {"value": unscaled["op_p50_ms"] * op_scale, "unit": "ms"},
        "op_p90_ms": {"value": unscaled["op_p90_ms"] * op_scale, "unit": "ms"},
        "setup_s": {"value": unscaled["setup_s"] * setup_scale, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }
    record.update(rounds=len(rounds), round_op_s=rounds, setup_s=setups, reference_s=reference,
                  unscaled=unscaled, end_to_end=metrics)
    return metrics


def traced_pairs(workload, seed, seconds, ops_fn, memo, tally, record):
    """Pairs of an untraced and a traced round, each the first after its own
    set-up, for `seconds`; returns the per-layer metrics, each the median over the pairs.

    `trace.overhead_s` compares the two kinds of round as the untraced runs
    time operations: each operation at its least time over the pairs.
    """
    from tracer import Tracer

    traced_tally = Tally()
    pairs = []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        tracer = Tracer()
        kinds = [(tally, None), (traced_tally, tracer)]
        for kind, wrapper in kinds if len(pairs) % 2 else kinds[::-1]:  # alternate which runs first
            gc.collect()  # the other round's homkit is garbage by now, not this round's cost
            hk, state = set_up(workload, seed, wrapper)
            gc.freeze()  # as in an untraced run, the long-lived objects sit out of the collector's way
            kind.run_round(ops_fn(hk, state, memo))
            gc.unfreeze()
            del hk, state
        pairs.append(tracer.metrics())
    layer = {name: statistics.median_low(p[name] for p in pairs) for name in pairs[0]}
    layer["trace.overhead_s"] = sum(traced_tally.best) - sum(tally.best)
    tally.attempted += traced_tally.attempted
    tally.failed += traced_tally.failed
    tally.failing |= traced_tally.failing
    tally.wrong += traced_tally.wrong
    record.update(pairs=len(pairs), per_layer_all=layer)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["hom-grid", "hom-large", "languages", "constructions"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "homkit" / "__init__.py").is_file():
        print(f"homkit sources not found under {ROOT / 'src'}; run from a homkit checkout", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # every set-up compiles homkit, whatever the environment
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import checkers  # noqa: F401  (numpy and networkx load before any set-up is timed)

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
