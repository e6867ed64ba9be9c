"""The names that the benchmark's tracer rebinds all still exist.

``perfbench/tracing.py`` wraps library functions by module and attribute
name, so a refactor that renames or removes one breaks ``--trace 1``.
This only imports the tracer and resolves its table; it runs nothing.
"""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_name_resolves():
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for _layer, _name, module_name, attr in tracing.TRACED:
        owner, name, fn = tracing._resolve(module_name, attr)
        assert callable(fn), f"{module_name}.{attr}"
        assert getattr(owner, name) is fn
