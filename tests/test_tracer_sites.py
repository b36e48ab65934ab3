"""The names the benchmark tracer wraps must exist on the package.

``perfbench/tracer.py`` replaces module attributes by name, so a refactor
that drops or renames one only fails once the traced benchmark runs. This
test loads the tracer by path, without importing the rest of the harness.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, attr: str):
    owner = importlib.import_module(f"racecma.{module_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_traced_site_resolves():
    tracer = _load_tracer()
    missing = []
    for module_name, attr, _layer in tracer.SITES:
        try:
            _resolve(module_name, attr)
        except AttributeError:
            missing.append(f"racecma.{module_name}.{attr}")
    assert missing == []


def test_run_probe_names_resolve():
    # RunProbe swaps these two for recording versions in every worker.
    for attr in ("IsacObjective", "run_method"):
        assert callable(_resolve("bench", attr))
