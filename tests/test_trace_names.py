"""Every name the benchmark tracer wraps still exists.

perfbench/spans.py replaces (module, name) pairs by wrappers at run time,
so a renamed or deleted function would only show up in a traced benchmark
run. The tracer is loaded from its file as is; nothing is wrapped here.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wraps():
    spec = importlib.util.spec_from_file_location("perfbench_spans_for_test", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


@pytest.mark.parametrize("module,name", [(m, n) for m, n, _, _ in _wraps()])
def test_wrapped_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
