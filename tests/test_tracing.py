"""The benchmark's tracer boundaries still name functions that exist.

perfbench/tracing.py wraps public lgcf functions and methods by name; a
rename in lgcf would otherwise surface only when the traced benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import lgcf  # noqa: F401  (install() patches the loaded lgcf modules)

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
    return module


def owner_of(module_name: str, cls_name: str | None):
    module = sys.modules[module_name]
    return module if cls_name is None else getattr(module, cls_name)


def test_every_boundary_resolves_and_uninstalls():
    tracing = load_tracing()
    before = {(mod, cls, attr): getattr(owner_of(mod, cls), attr)
              for _, mod, attr, cls, _ in tracing.BOUNDARIES}
    uninstall = tracing.install(tracing.Tracer())
    try:
        for (mod, cls, attr), original in before.items():
            patched = getattr(owner_of(mod, cls), attr)
            assert patched is not original, f"{mod}.{cls or ''}.{attr} not patched"
    finally:
        uninstall()
    for (mod, cls, attr), original in before.items():
        assert getattr(owner_of(mod, cls), attr) is original
