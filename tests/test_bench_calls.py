"""The benchmark's calls into the library still run and pass their checks.

``bench/workloads.py`` drives the library through its module-level names.
A library change that breaks one of those calls would otherwise show only in
the benchmark's own smoke test, which takes far longer than this suite.  The
bench modules are loaded from their files without writing bytecode beside
them, and they get the gallai_lab modules already imported here:
``load_library()`` would drop and re-import the package under the suite.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import gallai_lab
from gallai_lab import cli, coloring, constructions, detectors, search, structure

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name while the file executes
    sys.modules[spec.name] = module
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = _load("workloads")
spans = _load("spans")

LIB = SimpleNamespace(
    version=gallai_lab.__version__, file=gallai_lab.__file__, cli=cli, coloring=coloring,
    constructions=constructions, detectors=detectors, search=search, structure=structure,
)


@pytest.mark.parametrize("name", ["ramsey-c5c6", "ramsey-c6c6", "gallai-k3", "hosts-64"])
def test_one_sample_of_each_workload_passes(name, tmp_path):
    tr = spans.NullTracer()
    work = workloads.WORKLOADS[name]()
    work.setup(LIB, 3, tmp_path, tr)
    if name == "hosts-64":
        # The recipe hosts run check_recipe; only the random ones run
        # find_mono_cycle and validate_witness, make `check` exit 1 and compare
        # its witnesses with the library's.  Keep the first of each palette.
        work.hosts = [h for h in work.hosts
                      if h.recipe is not None or h.name.endswith("-0")]
        assert len(work.hosts) == 5
    results = work.sample(tr)
    assert results
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]
    if name == "hosts-64":
        assert any(r.detail["witnesses"] > 0 for r in results)
