"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deleted function that stays listed in a package's ``__all__`` breaks
``from repro.x import *`` only when someone runs it; this walks every
module and checks each exported name exists, once.
"""

import importlib
import pkgutil

import pytest

import repro


def _modules_with_all():
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    for name in names:
        module = importlib.import_module(name)
        if hasattr(module, "__all__"):
            yield pytest.param(module, id=name)


@pytest.mark.parametrize("module", _modules_with_all())
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists undefined {missing}"


@pytest.mark.parametrize("module", _modules_with_all())
def test_exports_are_unique(module):
    assert len(set(module.__all__)) == len(module.__all__)
