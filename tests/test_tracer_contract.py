"""The benchmark tracer (perfbench/tracer.py) reaches into superosc by
name; these checks fail when a rename or deletion in the package would
break a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from superosc import genfun

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _target(tracer, stem):
    for target_stem, module_name, path, _kind in tracer.TARGETS:
        if target_stem == stem:
            return tracer._resolve(importlib.import_module(f"superosc.{module_name}"), path)
    raise AssertionError(f"{stem} is not a tracer target")


def test_every_target_resolves(tracer):
    for stem, module_name, path, _kind in tracer.TARGETS:
        module = importlib.import_module(f"superosc.{module_name}")
        assert callable(tracer._resolve(module, path)), stem


def test_every_cached_target_has_cache_info(tracer):
    for stem in tracer.CACHED:
        assert hasattr(_target(tracer, stem), "cache_info"), stem


def test_every_builder_is_in_genfun(tracer):
    for name in tracer.BUILDERS:
        assert callable(getattr(genfun, name, None)), name


def test_identity_ids_match(tracer):
    assert tracer.IDENTITY_IDS == genfun.IDENTITY_IDS
