"""Every exported name exists, so ``from gtproj import *`` cannot fail."""
from __future__ import annotations

import importlib
import pkgutil

import gtproj


def test_every_exported_name_exists():
    modules = [gtproj] + [
        importlib.import_module(f"gtproj.{info.name}")
        for info in pkgutil.iter_modules(gtproj.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
