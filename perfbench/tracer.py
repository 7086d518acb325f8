"""Per-function call counts and self time for homkit's layer modules.

`Tracer.install` replaces every public function of the nine layer modules
by a timing wrapper, wherever the function is bound: in its own module and
in every homkit module that imported it by name.  Self time is the time
inside a call minus the time spent in wrapped calls it made.  A generator
is timed only inside its own ``next`` calls, and every value it hands out
counts as a yield.  Counters stay in memory until `metrics` reads them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

LAYERS = ("structures", "homs", "shape", "enumeration", "duality", "patterns", "snp", "fv", "sparse")


class _Stat:
    __slots__ = ("calls", "self_s", "errors", "yields")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.errors = 0
        self.yields = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self._child = [0.0]  # time spent in wrapped callees, per open frame

    def install(self, package):
        """Wrap the public functions of `package`'s layer modules; returns self."""
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == module.__name__
                ):
                    wrapped[obj] = self._wrap(obj, f"{layer}.{name}")
        prefix = package.__name__ + "."
        homkit_modules = [
            m for key, m in list(sys.modules.items()) if key == package.__name__ or key.startswith(prefix)
        ]
        for module in homkit_modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])
        return self

    def _wrap(self, fn, qualname):
        stat = self.stats.setdefault(qualname, _Stat())
        child = self._child
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                stat.calls += 1
                return drive(fn(*args, **kwargs))

            def drive(gen):
                while True:
                    child.append(0.0)
                    start = clock()
                    try:
                        value = next(gen)
                    except StopIteration:
                        return
                    except BaseException:
                        stat.errors += 1
                        raise
                    finally:
                        elapsed = clock() - start
                        stat.self_s += elapsed - child.pop()
                        child[-1] += elapsed
                    stat.yields += 1
                    yield value

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stat.calls += 1
            child.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - child.pop()
                child[-1] += elapsed

        return traced

    def metrics(self):
        """Flat name -> value: per function calls/self_s/errors/yields, per layer self_s."""
        out = {}
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for qualname, st in self.stats.items():
            out[f"{qualname}.calls"] = st.calls
            out[f"{qualname}.self_s"] = st.self_s
            out[f"{qualname}.errors"] = st.errors
            out[f"{qualname}.yields"] = st.yields
            per_layer[qualname.split(".", 1)[0]] += st.self_s
        for layer, total in per_layer.items():
            out[f"{layer}.self_s"] = total
        return out
