"""The traced benchmark's targets still exist in the library.

``bench/spans.py`` rebinds each traced function and reads each cache's
``cache_info()`` only when a traced run starts, so a rename in ``fuzzaut``
would break that run alone.  The file is loaded here without installing
its tracer.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_FILE = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("traced_spans", SPANS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = load_spans()
TARGETS = {**SPANS.SPANS, **SPANS.COUNTED, **SPANS.CACHES}


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_every_target_resolves(name):
    module, attr = TARGETS[name]
    assert module == "fuzzaut" or module.startswith("fuzzaut.")
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("name", sorted(SPANS.CACHES))
def test_every_cache_target_has_cache_info(name):
    module, attr = SPANS.CACHES[name]
    cached = getattr(importlib.import_module(module), attr)
    assert cached.cache_info().hits >= 0
