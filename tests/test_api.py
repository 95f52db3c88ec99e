"""The public surface: every exported name exists."""
import importlib
import pkgutil

import trialmix


def test_public_names_resolve():
    # perfbench's tracer wraps exactly these names, so a stale entry
    # would drop a layer from its spans without an error
    modules = [trialmix] + [
        importlib.import_module(f"trialmix.{m.name}")
        for m in pkgutil.iter_modules(trialmix.__path__)
        if m.name != "__main__"
    ]
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert len(modules) > 10
    assert missing == []
