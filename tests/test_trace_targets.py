"""The traced benchmark run wraps library functions by (module, name) and
reads cache statistics of a few lru caches; a rename must fail here
rather than break `perfbench/run.py --trace 1` quietly."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, name, span", spans.TARGETS, ids=str)
def test_trace_target_is_callable(module, name, span):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("metric, target", sorted(spans.CACHES.items()))
def test_trace_cache_has_cache_info(metric, target):
    module, name = target
    assert callable(getattr(importlib.import_module(module), name).cache_info)
