"""Every exported name resolves.

A name deleted from a module but left in its ``__all__`` (or in the package's)
breaks ``from awgp.<module> import *`` and misleads a reader; this catches it
without waiting for an import to fail.
"""

import importlib
import pkgutil

import pytest

import awgp

MODULES = [awgp] + [importlib.import_module(f"awgp.{info.name}")
                    for info in pkgutil.iter_modules(awgp.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_export_resolves(module):
    exports = getattr(module, "__all__", ())
    assert len(set(exports)) == len(exports)
    assert [name for name in exports if not hasattr(module, name)] == []
