"""Every name a ``repro`` module exports resolves.

A package's lazy ``_LAZY`` map (``repro``, ``repro.runtime``,
``repro.cluster``) is read only when someone accesses a name, so a stale
entry, left behind when the code it names is deleted, would otherwise
fail far from the change that broke it.
"""

import importlib
import pkgutil

import repro


def test_every_exported_name_resolves():
    # __main__ modules are skipped: importing repro.lint.__main__ runs the linter
    names = [repro.__name__] + [
        info.name
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
        if info.name.rsplit(".", 1)[-1] != "__main__"
    ]
    missing = []
    exported = 0
    for name in names:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            exported += 1
            try:
                getattr(module, attr)
            except AttributeError:
                missing.append(f"{name}.{attr}")
    assert missing == []
    assert exported > 100  # the walk reached the subpackages
