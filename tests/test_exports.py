from __future__ import annotations

import importlib
import pkgutil

import pwsync as ps


def test_every_export_resolves_and_is_exported_by_its_defining_module():
    modules = {
        info.name: importlib.import_module(f"pwsync.{info.name}")
        for info in pkgutil.iter_modules(ps.__path__)
        if info.name != "__main__"
    }
    assert len(ps.__all__) == len(set(ps.__all__))
    for name in ps.__all__:
        assert hasattr(ps, name), name
        obj = getattr(ps, name)
        exporters = [m for m in modules.values() if name in getattr(m, "__all__", ())]
        assert exporters, f"{name} is in no submodule's __all__"
        assert all(getattr(m, name) is obj for m in exporters), name
        home = getattr(obj, "__module__", None)
        if home is not None:
            assert name in modules[home.rpartition(".")[2]].__all__, (name, home)
