"""The four benchmark workloads and the answer checks behind ``failed``.

Each workload is set up once per repetition (``setup``) and then run in
samples (``sample``).  A sample is a list of tasks; each task either passes
every answer check or counts as failed.  Every call into a gallai_lab module
sits inside a span named after the module and the function, so a traced run
can tell the layers apart.

Why these workloads:

- ``ramsey-c5c6``: R(C5,C6) = 11.  Levels above the search's canonicity cap
  dominate, so most time goes to the seen-set canonical form.
- ``ramsey-c6c6``: R(C6,C6) = 8.  Canonicity stays below the cap; most time
  goes to the cycle check when a vertex is completed.
- ``gallai-k3``: GR_3(K_3) = 11 with rainbow triangles forbidden.  The only
  workload where the edge prunes fire and the palette has three colors.
- ``hosts-64``: detector, partition, I/O and CLI calls on 64-vertex hosts.
  The search does no work here, so a search-only change should not move it.
"""

from __future__ import annotations

import gc
import importlib
import itertools
import json
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

LAYERS = ("coloring", "constructions", "detectors", "structure", "search", "cli")

# Chung & Graham (1983): GR_k(K_3) = 2 * 5^((k-1)/2) + 1 for odd k, so 11 at k = 3.
GALLAI_RAMSEY_K3_3 = 11

# Random Gallai hosts per palette size.  Their cost varies with the seed, so
# several per palette keep one run's figures close to another's.
RANDOM_HOSTS_PER_PALETTE = 32
RANDOM_HOST_CYCLE = 5


def load_library() -> SimpleNamespace:
    """Import gallai_lab afresh (dropping any earlier import) and return its modules."""
    for name in [m for m in sys.modules if m == "gallai_lab" or m.startswith("gallai_lab.")]:
        del sys.modules[name]
    # The old modules sit in reference cycles; free them now, so that peak
    # memory does not grow with the number of set-ups.
    gc.collect()
    pkg = importlib.import_module("gallai_lab")
    mods = {name: importlib.import_module("gallai_lab." + name) for name in LAYERS}
    return SimpleNamespace(version=pkg.__version__, file=pkg.__file__, **mods)


@dataclass
class TaskResult:
    ok: bool
    detail: dict = field(default_factory=dict)
    error: str | None = None


def _guarded(run, *args) -> TaskResult:
    """Run one task; an exception fails the task, not the benchmark."""
    try:
        return run(*args)
    except Exception:
        text = traceback.format_exc()
        print(text, file=sys.stderr, end="")
        return TaskResult(False, error=text.strip().splitlines()[-1])


# -- threshold searches ---------------------------------------------------------


@dataclass(frozen=True)
class ThresholdSpec:
    family: str  # "Ramsey" or "GallaiRamsey", as verify_certificate reads it
    params: dict
    k: int
    forbidden: tuple[int, ...]
    rainbow: bool
    limits: dict[int, int] | None


class ThresholdWorkload:
    """One task grows the order from 1 until the search stops finding colorings.

    The loop is driven here rather than by ``search_ramsey`` /
    ``search_gallai_ramsey`` so that a raised feasibility limit is honored and
    the per-order numbers are visible.  The last coloring found is certified
    through a ``SearchReport`` assembled here.
    """

    tasks_per_sample = 1

    def __init__(self, spec: ThresholdSpec):
        self.spec = spec

    def setup(self, lib: SimpleNamespace, seed: int, workdir: Path, tr) -> None:
        self.lib = lib
        self.seed = seed
        if self.spec.family == "Ramsey":
            with tr.span("constructions.ramsey_formula"):
                self.expected = lib.constructions.ramsey_formula(
                    self.spec.params["m"], self.spec.params["n"])
        else:
            self.expected = GALLAI_RAMSEY_K3_3

    def sample(self, tr) -> list[TaskResult]:
        return [_guarded(self._task, tr)]

    def _task(self, tr) -> TaskResult:
        search = self.lib.search
        spec = self.spec
        orders = []
        totals = search.SearchStats()
        last_found = None
        for n in itertools.count(1):
            problem = search.AvoidanceProblem(n, spec.k, spec.forbidden, spec.rainbow)
            t0 = time.perf_counter()
            with tr.span("search.exists_avoiding"):
                out = search.exists_avoiding(problem, limit_overrides=spec.limits)
            last_s = time.perf_counter() - t0
            st = out.stats
            totals.absorb(st)
            orders.append({"n": n, "status": out.status, "nodes": st.nodes,
                           "canonical": st.canonical, "rejected": st.rejected, "ms": st.ms})
            if out.status != search.FOUND:
                break
            last_found = out.coloring
        tr.count("search.orders", len(orders))
        tr.count("search.nodes", totals.nodes)
        tr.count("search.canonical", totals.canonical)
        tr.count("search.rejected", totals.rejected)
        tr.count("search.last_order.nodes", orders[-1]["nodes"])
        tr.count("search.last_order.s", last_s)
        detail = {"orders": orders}
        if out.status != search.EXHAUSTED or n != self.expected:
            return TaskResult(False, detail,
                              f"stopped at n={n} with {out.status}, expected exhaustion at {self.expected}")
        params = dict(spec.params, n_max=None, seed=self.seed)
        report = search.SearchReport(spec.family, params, n, n, n, last_found, totals)
        with tr.span("search.verify_certificate"):
            check = search.verify_certificate(report)
        if not check.valid:
            return TaskResult(False, detail, f"certificate rejected: {check.reason}")
        return TaskResult(True, detail)


# -- 64-vertex hosts ------------------------------------------------------------


@dataclass
class Host:
    name: str
    graph: object
    recipe: object | None  # a ConstructionRecipe, or None for random hosts
    cycle: int  # the cycle order the CLI check scans for
    colors: str  # the CLI's --colors value
    path: Path


class HostsWorkload:
    """One task sweeps one 64-vertex host; one sample sweeps every host once.

    Long exact-cycle scans have no budget and can run for minutes, so the
    cycle orders here are the ones the constructions forbid plus a short
    cycle on the random hosts.
    """

    def setup(self, lib: SimpleNamespace, seed: int, workdir: Path, tr) -> None:
        self.lib = lib
        self.workdir = workdir
        build = lib.constructions
        rng = random.Random(seed)
        specs = []
        with tr.span("constructions.build"):
            g, recipe = build.build_extremal_odd(2, 5)
        specs.append(("extremal-2-5", g, recipe, 5, "all"))
        with tr.span("constructions.build"):
            g, recipe = build.build_extremal_odd(4, 4)
        specs.append(("extremal-4-4", g, recipe, 9, "all"))
        with tr.span("constructions.build"):
            g, recipe = build.build_ramsey_cycle_lower(5, 33)
        specs.append(("ramsey-lower-5-33", g, recipe, 5, "1"))
        for k in (3, 4):
            for i in range(RANDOM_HOSTS_PER_PALETTE):
                with tr.span("constructions.build"):
                    g = build.random_gallai(64, k, rng.randrange(2**32))
                specs.append((f"random-k{k}-{i}", g, None, RANDOM_HOST_CYCLE, "all"))
        workdir.mkdir(parents=True, exist_ok=True)
        self.hosts = []
        for name, g, recipe, cycle, colors in specs:
            comments = (f"recipe: {recipe.to_json()}",) if recipe is not None else ()
            with tr.span("coloring.serialize"):
                text = lib.coloring.serialize(g, comments)
            path = workdir / f"{name}.txt"
            path.write_text(text, encoding="utf-8")
            self.hosts.append(Host(name, g, recipe, cycle, colors, path))

    @property
    def tasks_per_sample(self) -> int:
        return len(self.hosts)

    def sample(self, tr) -> list[TaskResult]:
        return [_guarded(self._sweep, h, tr) for h in self.hosts]

    def _sweep(self, h: Host, tr) -> TaskResult:
        lib = self.lib
        det = lib.detectors
        g = h.graph
        problems = []
        with tr.span("coloring.serialize"):
            text = lib.coloring.serialize(g)
        with tr.span("coloring.parse"):
            back = lib.coloring.parse(text)
        if back != g:
            problems.append("serialize/parse round trip changed the coloring")
        with tr.span("detectors.find_rainbow_triangle"):
            w = det.find_rainbow_triangle(g)
        if w is not None:
            problems.append(f"rainbow triangle {w.vertices} in a Gallai host")
        witnesses = []
        if h.recipe is not None:
            with tr.span("constructions.check_recipe"):
                violations = lib.constructions.check_recipe(g, h.recipe)
            problems.extend(violations)
        else:
            for c in range(1, g.k + 1):
                with tr.span("detectors.find_mono_cycle"):
                    w = det.find_mono_cycle(g, c, h.cycle)
                if w is None:
                    continue
                witnesses.append(w)
                with tr.span("detectors.validate_witness"):
                    valid = det.validate_witness(g, w)
                if not valid or w.color != c or len(w.vertices) != h.cycle:
                    problems.append(f"invalid C_{h.cycle} witness {w}")
            tr.count("detectors.find_mono_cycle.found", len(witnesses))
        with tr.span("structure.gallai_partition"):
            p = lib.structure.gallai_partition(g, coarsest=True)
        with tr.span("structure.validate_partition"):
            rep = lib.structure.validate_partition(g, p)
        if not rep.ok:
            problems.append(f"invalid partition: {rep.reason}")
        tr.count("structure.parts", len(p.parts))
        problems.extend(self._cli(h, witnesses, p.to_json_dict(), tr))
        detail = {"host": h.name, "parts": len(p.parts), "witnesses": len(witnesses)}
        return TaskResult(not problems, detail, "; ".join(problems) or None)

    def _cli(self, h: Host, witnesses: list, partition: dict, tr) -> list[str]:
        """Run ``check`` and ``partition`` in-process and compare with the library."""
        lib = self.lib
        problems = []
        out = self.workdir / f"{h.name}.check.json"
        argv = ["check", str(h.path), "--cycle", str(h.cycle), "--colors", h.colors, "-o", str(out)]
        with tr.span("cli.main"):
            code = lib.cli.main(argv)
        expected_code = 1 if witnesses else 0  # 1 when found, 0 when absent
        if code != expected_code:
            problems.append(f"check exited {code}, expected {expected_code}")
        payload = json.loads(out.read_text(encoding="utf-8"))
        if payload["witnesses"] != [w.to_json_dict() for w in witnesses]:
            problems.append("check reported other witnesses than the detectors")
        for d in payload["witnesses"]:
            with tr.span("detectors.validate_witness"):
                valid = lib.detectors.validate_witness(h.graph, lib.detectors.Witness.from_json_dict(d))
            if not valid:
                problems.append(f"check witness {d} does not validate")
        out = self.workdir / f"{h.name}.partition.json"
        with tr.span("cli.main"):
            code = lib.cli.main(["partition", str(h.path), "--coarsest", "-o", str(out)])
        if code != 0:
            problems.append(f"partition exited {code}, expected 0")
        if json.loads(out.read_text(encoding="utf-8")) != partition:
            problems.append("partition command disagrees with gallai_partition")
        return problems


WORKLOADS = {
    "ramsey-c5c6": lambda: ThresholdWorkload(
        ThresholdSpec("Ramsey", {"m": 5, "n": 6}, 2, (5, 6), False, {2: 11})),
    "ramsey-c6c6": lambda: ThresholdWorkload(
        ThresholdSpec("Ramsey", {"m": 6, "n": 6}, 2, (6, 6), False, None)),
    "gallai-k3": lambda: ThresholdWorkload(
        ThresholdSpec("GallaiRamsey", {"m": 3, "k": 3}, 3, (3, 3, 3), True, {3: 11})),
    "hosts-64": HostsWorkload,
}
