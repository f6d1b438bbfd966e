"""The benchmark's per-layer tracer names afgeo functions by string; a
renamed target would silently drop its metrics, so every name must resolve."""

import importlib
import importlib.util
from pathlib import Path

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def _layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_trace_target_resolves():
    lt = _layertrace()
    for m in lt.MODULES:
        importlib.import_module(f"afgeo.{m}")
    for name, (m, qual) in {**lt.NAMED_SPANS, **lt.COUNTERS}.items():
        obj = importlib.import_module(f"afgeo.{m}")
        for part in qual.split("."):
            assert hasattr(obj, part), f"{name}: afgeo.{m}.{qual} is gone"
            obj = getattr(obj, part)
        assert callable(obj), name


def test_every_module_is_traced():
    # the tracer wraps only the modules it names: a module left out of
    # MODULES spends its time, unnamed, in its caller's self time
    package = Path(importlib.import_module("afgeo").__file__).parent
    modules = {p.stem for p in package.glob("*.py")} - {"__init__"}
    assert sorted(modules - set(_layertrace().MODULES)) == []
