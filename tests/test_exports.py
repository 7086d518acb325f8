import pkgutil
import types

import homkit


def test_all_names_resolve_and_exclude_submodules():
    submodules = {m.name for m in pkgutil.iter_modules(homkit.__path__)}
    assert len(set(homkit.__all__)) == len(homkit.__all__)
    for name in homkit.__all__:
        value = getattr(homkit, name)
        assert not isinstance(value, types.ModuleType), name
        assert name not in submodules, name
    assert {"duality", "homs", "structures"} <= submodules
