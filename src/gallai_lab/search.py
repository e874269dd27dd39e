"""Exhaustive search for colorings avoiding forbidden structures.

Colorings are grown one vertex at a time (the new vertex's color vector to
all earlier vertices).  Before an edge takes a color, the search looks for a
rainbow triangle or a forbidden cycle through that edge among the edges
already colored.  Every cycle through a vertex is caught at its last-colored
edge there, so each completed vector is free of them; a node is one such
cycle-free vector.  The cycle test reads a path-end table
(``detectors._PathEnds``, the one exact-path kernel, which the cycle and
path detectors share): while vertex v's vector is assigned, vertices
0..v-1 keep their colors, so for each color the search keeps, per vertex u,
the far ends of the simple paths from u with m - 2 edges among them.  Edge
{u, v} closes a C_m exactly when u's row meets v's earlier neighbors in that
color.  Rows are filled on demand, by a depth-first search that stops at the
first end asked about, and remember both the ends found and the vertices
ruled out, so no pair of vertices is settled twice at one prefix.

Each class of partial colorings is expanded once, by one rule: the search
keeps a store of the classes it has seen.  Two colorings share a class when
a vertex relabeling and a renaming of colors with equal forbidden cycle
lengths turn one into the other; such a renaming keeps every constraint,
the rainbow rule included.  The store names a coloring's colors in order of
class size, and its bucket is the trace of that palette image's color-degree
refinement (McKay & Piperno 2014).  It is new when no image stored in that
bucket is isomorphic to it: individualization plus refinement until every
cell is a twin module, whose vertices see each outside vertex and each
other in one color.  Any permutation inside such cells is an automorphism,
so one bijection that keeps the cells, checked row by row, then decides
the test exactly.  The class member kept is its min-image, the one no
relabeling and renaming turns into a lexicographically smaller color word:
vectors that cannot be min-images are cut while they are assigned
(``_Search._assign``), as in orderly generation (Read 1978; McKay 1998),
and each level is visited in word order, so the first member of a class to
reach the store is its min-image.

One depth-first search answers every order at once, since nothing below
order n depends on n: it records the first coloring it completes at each
order, and a budget caps the steps of the whole search.  A call of the
path-end walk is one step, so one cycle test cannot run unbounded either.
A node of order l with k colors is l * k steps, one per vertex and color of
the coloring the store refines: its cost grows with both, and so weighed a
step costs about what a walk call does (1.2-5 microseconds in walk-bound
and node-bound runs alike, Python 3.11 on a shared 2-vCPU VM).  The budget
is the only thing that stops a threshold search short of an answer.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from dataclasses import dataclass
from typing import Iterator, Sequence

from .coloring import (
    MAX_VERTICES,
    ColoredCompleteGraph,
    VertexSubset,
    complete_monochromatic,
    induced,
    substitute,
)
from .constructions import (
    build_extremal_odd,
    build_ramsey_cycle_lower,
    gallai_ramsey_formula,
    ramsey_formula,
)
from .detectors import (
    RAINBOW_TRIANGLE,
    Witness,
    _OutOfSteps,
    _PathEnds,
    _StepMeter,
    forbidden_structures,
)
from .errors import BadParameters, OverLimit

FOUND = "found"
EXHAUSTED = "exhausted"
BUDGET_EXCEEDED = "budget_exceeded"

# steps for a whole threshold search: enough to exhaust R(C9,C9) = 17
# (6.65 million steps), and about 10-60 s for a search that runs out
DEFAULT_BUDGET = 10_000_000


@dataclass(frozen=True)
class AvoidanceProblem:
    """What to avoid: per-color cycle orders, optionally rainbow triangles."""

    n: int
    k: int
    forbidden: tuple[int, ...]
    rainbow_triangle_forbidden: bool = False

    def __post_init__(self):
        if self.n < 1:
            raise BadParameters(f"order {self.n} must be at least 1")
        if self.k < 1:
            raise BadParameters(f"palette {self.k} must be at least 1")
        if len(self.forbidden) != self.k:
            raise BadParameters(
                f"{len(self.forbidden)} forbidden cycle orders for palette {self.k}"
            )
        for m in self.forbidden:
            if m < 3:
                raise BadParameters(f"forbidden cycle order {m} must be at least 3")

    @classmethod
    def uniform(cls, n: int, k: int, m: int, rainbow: bool = False) -> "AvoidanceProblem":
        return cls(n, k, (m,) * k, rainbow)


@dataclass
class SearchStats:
    nodes: int = 0
    canonical: int = 0
    rejected: int = 0
    steps: int = 0
    ms: int = 0

    def absorb(self, other: "SearchStats") -> None:
        """Add another search's counts.  Only the benchmark calls this: drop it
        with the next benchmark change."""
        self.nodes += other.nodes
        self.canonical += other.canonical
        self.rejected += other.rejected
        self.steps += other.steps
        self.ms += other.ms

    def to_json_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "canonical": self.canonical,
            "rejected": self.rejected,
            "steps": self.steps,
            "ms": self.ms,
        }


@dataclass
class SearchOutcome:
    status: str
    coloring: ColoredCompleteGraph | None
    stats: SearchStats


def _refine(rows: list[list[int]], cells: list[int], targets: list[int]) -> tuple[list[int], list]:
    """Split an ordered partition by color degree until it is equitable.

    Cells and targets are vertex bitsets, and ``rows`` holds the adjacency
    bitsets of colors 1..k-1; color k is the rest.  The incoming partition
    must already be equitable toward every cell but the targets.  Each
    round, a vertex's signature counts its neighbors in each of those colors
    inside each target (against a lone target vertex: the color of its edge
    there), and every cell of two or more vertices is split into groups of
    equal signature, ordered by signature.  The counts are packed into one
    int, seven bits each, color by color and target by target; a count is
    at most 63 and a round's signatures all hold the same number of counts,
    so the ints compare as the count sequences do.  The next round's targets
    are the groups of the cells that split, all but the first largest of
    each: its counts are the old cell's, equal across any cell, less the
    others'.  So the outcome depends on the coloring and the incoming
    partition but never on the labels.  Returns the equitable partition and
    its trace: every cell's groups as (cell position, size, signature),
    round by round.
    """
    trace = []
    while targets:
        split: list[int] = []
        fresh: list[int] = []
        t = targets[0]
        u = t.bit_length() - 1 if len(targets) == 1 and not t & (t - 1) else -1
        for i, cell in enumerate(cells):
            if not cell & (cell - 1):
                split.append(cell)
                continue
            groups: dict = {}
            rest = cell
            if u >= 0:
                for c, row in enumerate(rows, 1):
                    part = rest & row[u]
                    if part:
                        groups[c] = part
                        rest ^= part
                if rest:
                    groups[len(rows) + 1] = rest
            else:
                while rest:
                    low = rest & -rest
                    rest ^= low
                    v = low.bit_length() - 1
                    sig = 0
                    for row in rows:
                        r = row[v]
                        for m in targets:
                            sig = sig << 7 | (r & m).bit_count()
                    groups[sig] = groups.get(sig, 0) | low
            if len(groups) == 1:
                (sig,) = groups
                trace.append((i, cell.bit_count(), sig))
                split.append(cell)
                continue
            order = sorted(groups)
            sizes = [groups[sig].bit_count() for sig in order]
            big = sizes.index(max(sizes))
            for j, sig in enumerate(order):
                trace.append((i, sizes[j], sig))
                split.append(groups[sig])
                if j != big:
                    fresh.append(groups[sig])
        cells, targets = split, fresh
    return cells, trace


def _twin_module(rows: list[list[int]], cell: int) -> bool:
    """Do the cell's vertices see each vertex outside it, and each other, in one color?

    Then every permutation of the cell is an automorphism.  ``rows`` holds
    the adjacency bitsets of colors 1..k-1; color k follows.  For each color
    the first vertex x of the cell sets the pattern: when x sees the cell in
    that color, every vertex's row plus itself equals x's row plus x, and
    otherwise every vertex's row equals x's.
    """
    rest = cell & (cell - 1)
    bx = cell ^ rest
    x = bx.bit_length() - 1
    for row in rows:
        inside = row[x] & cell
        want = row[x] | bx if inside else row[x]
        r = rest
        while r:
            low = r & -r
            r ^= low
            got = row[low.bit_length() - 1]
            if (got | low if inside else got) != want:
                return False
    return True


def _isomorphic(ra: list[list[int]], pa: list[int], rb: list[list[int]], pb: list[int]) -> bool:
    """Is there a color-preserving bijection taking each cell of pa onto the same cell of pb?

    ra and rb are the rows of colors 1..k-1, and pa and pb equitable
    partitions reached with equal traces.  When every cell of pa is a twin
    module in ra (``_twin_module``; a single vertex is one), every
    permutation inside the cells is an automorphism of ra, so if any
    cell-preserving bijection is an isomorphism, so is each of them: pairing
    each cell's vertices with its image's in bit order decides the test,
    and every row of ra, relabeled, must be its image's row in rb.
    Otherwise the least vertex of pa's first cell that is no twin module is
    individualized against each vertex of pb's matching cell; both sides
    are refined and, on equal traces, the search recurses.  A part of a twin
    module is still one, so the rule holds at every depth.
    """
    for i, cell in enumerate(pa):
        if cell & (cell - 1) and not _twin_module(ra, cell):
            break
    else:
        image = [0] * sum(map(int.bit_count, pa))
        for x, y in zip(pa, pb):
            while x:
                lx = x & -x
                ly = y & -y
                x ^= lx
                y ^= ly
                image[lx.bit_length() - 1] = ly.bit_length() - 1
        for row_a, row_b in zip(ra, rb):
            for u, w in enumerate(image):
                r = row_a[u]
                mapped = 0
                while r:
                    low = r & -r
                    r ^= low
                    mapped |= 1 << image[low.bit_length() - 1]
                if mapped != row_b[w]:
                    return False
        return True
    a = cell & -cell
    qa, ta = _refine(ra, pa[:i] + [a, cell ^ a] + pa[i + 1:], [a])
    rest = pb[i]
    while rest:
        b = rest & -rest
        rest ^= b
        qb, tb = _refine(rb, pb[:i] + [b, pb[i] ^ b] + pb[i + 1:], [b])
        if tb == ta and _isomorphic(ra, qa, rb, qb):
            return True
    return False


def _block_orders(block: Sequence[int], sizes: list[int]) -> list[tuple[int, ...]]:
    """Every order of the block's colors by class size, tied colors in each of their orders.

    Empty colors are all alike, so they keep one order.
    """
    orders: list[tuple[int, ...]] = [()]
    for size, run in itertools.groupby(sorted(block, key=sizes.__getitem__), sizes.__getitem__):
        run = tuple(run)
        perms = list(itertools.permutations(run)) if size else [run]
        orders = [o + p for o in orders for p in perms]
    return orders


class _ClassStore:
    """Classes of colorings seen so far, bucketed by refinement trace.

    Two colorings share a class when a vertex relabeling and a permutation
    of the colors inside each of ``blocks`` (lists of colors) turn one into
    the other; with no blocks that is vertex relabeling alone.  A coloring's
    palette images put each block's colors in order of class size, tied
    colors in every order.  Relabeling vertices relabels that set of images
    and permuting a block leaves it as it is, so two colorings share a class
    exactly when the first image of one is vertex-isomorphic to some image
    of the other.  A lookup builds and refines the first image only, on the
    live rows; the others are built on accept, and every image is kept under
    its own trace.  Colorings of different orders never share a trace, so
    one store serves every level.  Each stored image keeps a copy of its
    rows of colors 1..k-1, cut to its order, and its equitable partition.
    Lookups go through ``_isomorphic``, which settles a partition of twin
    modules with one pairing of the cells.
    """

    def __init__(self, blocks: Sequence[Sequence[int]] = ()):
        self.blocks = [tuple(b) for b in blocks]
        self.buckets: dict[tuple, list[tuple[list[list[int]], list[int]]]] = {}

    def _images(
        self, masks: Sequence[list[int]], sizes: Sequence[int]
    ) -> Iterator[list[list[int]]]:
        # each image's rows of colors 1..k-1, the first image first; the rows
        # are masks' own.  The first image sorts each block by size, stably,
        # which is the first of its _block_orders; the rest are drawn on accept
        if not self.blocks:
            yield masks[1:-1]
            return
        source = list(range(len(masks)))
        for block in self.blocks:
            for c, s in zip(block, sorted(block, key=sizes.__getitem__)):
                source[c] = s
        yield [masks[s] for s in source[1:-1]]
        orders = itertools.product(*(_block_orders(b, sizes) for b in self.blocks))
        next(orders)
        for order in orders:
            for block, ranked in zip(self.blocks, order):
                for c, s in zip(block, ranked):
                    source[c] = s
            yield [masks[s] for s in source[1:-1]]

    def add(self, masks: Sequence[list[int]], ell: int, sizes: Sequence[int]) -> bool:
        """Record the coloring on vertices 0..ell-1; False if its class was already here.

        ``masks[c]`` holds the adjacency bitsets of color c (index 0 unused),
        and ``sizes[c]`` the number of color-c edges, as the search keeps
        them.
        """
        images = self._images(masks, sizes)
        every = (1 << ell) - 1
        rows = next(images)
        cells, trace = _refine(rows, [every], [every])
        bucket = self.buckets.setdefault(tuple(trace), [])
        for stored, stored_cells in bucket:
            if _isomorphic(rows, cells, stored, stored_cells):
                return False
        bucket.append(([row[:ell] for row in rows], cells))
        for rows in images:
            cells, trace = _refine(rows, [every], [every])
            self.buckets.setdefault(tuple(trace), []).append(([row[:ell] for row in rows], cells))
        return True


def _path_end_tables(masks: list[list[int]], forbidden: Sequence[int], v: int,
                     triangles: list | None = None, meter: _StepMeter | None = None) -> list:
    """Per color c (index 0 unused), the path-end table of the coloring on 0..v-1.

    A color gets None when no C_m, m = forbidden[c - 1], fits on the v + 1
    vertices 0..v.  An m = 3 table does not depend on the prefix, its rows
    being the live adjacency rows, so one given in ``triangles`` is reused.
    The tables count their walks on ``meter``.
    """
    prefix = (1 << v) - 1
    return [None] + [
        None if m > v + 1
        else triangles[c] if triangles is not None and m == 3
        else _PathEnds(masks[c], prefix, m, meter)
        for c, m in enumerate(forbidden, 1)
    ]


class _Found(Exception):
    """A decision-mode search completed a coloring of its order n."""


class _Search:
    """One depth-first search over the colorings of K_n that avoid the problem.

    ``budget`` caps the steps taken, None for no cap: l * k per node of
    order l and one per call of a path-end walk.  ``words[l - 1]`` is the
    first coloring it completes at order l, as a flat color word.  With
    ``collect`` every canonical coloring of order n is appended to it;
    without, the search stops at the first one by raising ``_Found``.
    """

    def __init__(self, problem: AvoidanceProblem, budget: int | None = None,
                 collect: list[ColoredCompleteGraph] | None = None):
        if budget is not None and budget < 1:
            raise BadParameters(f"step budget {budget} must be at least 1")
        self.p = problem
        n, k = problem.n, problem.k
        self.colors = [[0] * n for _ in range(n)]
        self.masks = [[0] * n for _ in range(k + 1)]
        self.sizes = [0] * (k + 1)  # edges of each color (index 0 unused)
        self.tables: list = [None] * n
        self.meter = _StepMeter(budget)
        # at v = 2 only m = 3 fits: these are the m = 3 tables for every prefix
        self.triangles = _path_end_tables(self.masks, problem.forbidden, 2)
        self.collect = collect
        self.nodes = 0
        self.canonical = 0
        self.rejected = 0
        self.words: list[list[int]] = []
        self.exceeded = False
        # renaming colors of equal forbidden length keeps every constraint
        blocks: dict[int, list[int]] = {}
        for c, m in enumerate(problem.forbidden, 1):
            blocks.setdefault(m, []).append(c)
        self.seen = _ClassStore([b for b in blocks.values() if len(b) > 1])

    def run(self) -> "_Search":
        # _assign recurses once per edge: up to n * n more frames than the caller's
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(limit + self.p.n ** 2)
        try:
            if self.p.n == 1:
                # K_1 has no vertex to complete; it still counts as one node
                self._count_node(1)
                self.canonical += 1
            self._extend(1)
        except _Found:
            pass
        except _OutOfSteps:
            self.exceeded = True
        finally:
            sys.setrecursionlimit(limit)
        return self

    def _count_node(self, level: int) -> None:
        # a node weighs level * k steps; one that would pass the cap is not taken
        meter = self.meter
        steps = meter.steps + level * self.p.k
        if steps > meter.cap:
            raise _OutOfSteps
        meter.steps = steps
        self.nodes += 1

    def _word(self, v: int) -> list[int]:
        return [c for w in range(1, v) for c in self.colors[w][:w]]

    def _extend(self, v: int) -> None:
        if v > len(self.words):
            self.words.append(self._word(v))
        if v == self.p.n:
            if self.collect is None:
                raise _Found
            self.collect.append(ColoredCompleteGraph(v, self.p.k, self._word(v)))
            return
        # the coloring on 0..v-1 stays fixed while v's vector is assigned
        self.tables[v] = _path_end_tables(self.masks, self.p.forbidden, v, self.triangles,
                                          self.meter)
        # at v = 1 edge {0,1} is not colored yet: no floor and no row to tie with
        self._assign(v, 0, max(1, self.colors[0][1]), v >= 2)

    def _assign(self, v: int, u: int, floor: int, tie: bool) -> None:
        """Try each color on edge {u, v}, then go on to u + 1.

        Column v of the color word is v's vector, read in the order it is
        assigned, so two bounds cost one comparison per edge and only drop
        vectors that are not min-images.  Colors below ``floor``
        (colors[0][1]) are skipped: such an edge could be relabeled onto
        {0,1}.  While ``tie`` holds (v's row on 0..u-1 equals row v-1's) so is
        any color below colors[v-1][u]: swapping labels v-1 and v would give
        a smaller word.  The parent's rows are already in order, so row v-1
        is the only row to compare with.  A vector that is no min-image under
        vertex relabeling stays none once the colors inside a block may be
        renamed too, so the bounds keep every min-image of the store's
        classes.  Colors are
        tried in increasing order, so each level is visited in word order
        and the first member of a class that the store sees is its
        min-image.  At the last vertex the search stops at its first
        completion, which is the lexicographically first avoider: that
        avoider is the min-image of its class and its parent the min-image
        of its own, so no bound cuts either and the store kept the parent.
        """
        if u == v:
            self._complete_vertex(v)
            return
        colors = self.colors
        masks = self.masks
        sizes = self.sizes
        bu = 1 << u
        bv = 1 << v
        above = colors[v - 1][u] if tie else 0
        for c in range(max(floor, above), self.p.k + 1):
            if not self._edge_ok(u, v, c):
                continue
            colors[u][v] = colors[v][u] = c
            masks[c][u] |= bv
            masks[c][v] |= bu
            sizes[c] += 1
            self._assign(v, u + 1, floor, c == above)
            sizes[c] -= 1
            masks[c][u] ^= bv
            masks[c][v] ^= bu
            colors[u][v] = colors[v][u] = 0

    def _edge_ok(self, u: int, v: int, c: int) -> bool:
        """May edge {u, v} (u < v) take color c, given the edges colored so far?

        It may not when it closes a C_m in color c (m = forbidden[c - 1]):
        v -> u, a color-c path of m - 2 edges from u to some w < v, back to v.
        Row u of the color's path-end table holds every such w, so the edge
        closes one when that row meets v's color-c neighbors so far.  For
        m = 3 the row is u's color-c neighbors: the triangle test.
        """
        table = self.tables[v][c]
        if table is not None:
            targets = self.masks[c][v]
            # the rows answer most questions without a call
            if targets & table.ends[u]:
                return False
            if targets & ~table.ruled_out[u] and table.closes(u, targets):
                return False
        if self.p.rainbow_triangle_forbidden and self.p.k >= 3:
            cu = self.colors[u]
            cv = self.colors[v]
            for w in range(u):
                c1 = cu[w]
                c2 = cv[w]
                if c1 != c2 and c1 != c and c2 != c:
                    return False
        return True

    def _complete_vertex(self, v: int) -> None:
        level = v + 1
        self._count_node(level)
        if level == self.p.n and self.collect is None:
            # decision mode: any completion certifies "found", canonicity is moot
            self.canonical += 1
            self._extend(level)
            return
        if not self.seen.add(self.masks, level, self.sizes):
            self.rejected += 1
            return
        self.canonical += 1
        self._extend(level)


def exists_avoiding(
    problem: AvoidanceProblem,
    budget: int | None = None,
    limit_overrides: dict[int, int] | None = None,
) -> SearchOutcome:
    """Decide whether any coloring of K_n avoids everything the problem forbids.

    Returns found (with a coloring), exhausted, or budget_exceeded.  The
    budget is a hard cap on the steps taken at this order: l * k per node
    of order l and one per call of a path-end walk.  ``limit_overrides`` maps a palette
    size to the largest order its caller allows; a larger order raises
    OverLimit.
    """
    limit = (limit_overrides or {}).get(problem.k)
    if limit is not None and problem.n > limit:
        raise OverLimit(problem.n, problem.k, limit)
    t0 = time.monotonic()
    s = _Search(problem, budget).run()
    ms = int((time.monotonic() - t0) * 1000)
    stats = SearchStats(s.nodes, s.canonical, s.rejected, s.meter.steps, ms)
    if len(s.words) == problem.n:
        return SearchOutcome(FOUND, ColoredCompleteGraph(problem.n, problem.k, s.words[-1]), stats)
    return SearchOutcome(BUDGET_EXCEEDED if s.exceeded else EXHAUSTED, None, stats)


def enumerate_avoiding(problem: AvoidanceProblem) -> list[ColoredCompleteGraph]:
    """All avoiding colorings, one per class (test scale).

    A class is closed under vertex relabeling and under renaming colors
    with equal forbidden cycle lengths.
    """
    out: list[ColoredCompleteGraph] = []
    _Search(problem, collect=out).run()
    return out


# -- threshold searches ---------------------------------------------------------


def _field(d: dict, key: str, kind: type, nullable: bool = False):
    """``d[key]``, which must be there and of type ``kind`` (or null when ``nullable``)."""
    if key not in d:
        raise ValueError(f"report has no {key!r} field")
    v = d[key]
    if type(v) is not kind and not (nullable and v is None):
        wanted = kind.__name__ + " or null" * nullable
        raise ValueError(f"report field {key!r} is {v!r}, not {wanted}")
    return v


@dataclass
class SearchReport:
    family: str
    params: dict
    value: int | None
    lower: int
    upper: int | None
    witness: ColoredCompleteGraph | None
    stats: SearchStats

    def to_json_dict(self, witness_file: str | None = None) -> dict:
        return {
            "family": self.family,
            "params": self.params,
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "witness_file": witness_file,
            "stats": self.stats.to_json_dict(),
        }

    def to_json(self, witness_file: str | None = None) -> str:
        return json.dumps(self.to_json_dict(witness_file), indent=2) + "\n"

    @classmethod
    def from_json_dict(
        cls, d: dict, witness: ColoredCompleteGraph | None = None
    ) -> "SearchReport":
        """Read a report; a missing or mistyped field raises ValueError."""
        if type(d) is not dict:
            raise ValueError("a report is a JSON object")
        stats = d.get("stats", {})
        if (type(stats) is not dict or not stats.keys() <= SearchStats.__dataclass_fields__.keys()
                or any(type(x) is not int for x in stats.values())):
            raise ValueError(
                f"report stats {stats!r} must map nodes, canonical, rejected, steps, ms"
                " to integers")
        return cls(
            family=_field(d, "family", str),
            params=_field(d, "params", dict),
            value=_field(d, "value", int, nullable=True),
            lower=_field(d, "lower", int),
            upper=_field(d, "upper", int, nullable=True),
            witness=witness,
            stats=SearchStats(**stats),
        )


def reports_equivalent(a: SearchReport, b: SearchReport) -> bool:
    """Equality up to wall time, which is the one nondeterministic field."""
    return (
        a.family == b.family
        and a.params == b.params
        and a.value == b.value
        and a.lower == b.lower
        and a.upper == b.upper
        and a.witness == b.witness
        and (a.stats.nodes, a.stats.canonical, a.stats.rejected, a.stats.steps)
        == (b.stats.nodes, b.stats.canonical, b.stats.rejected, b.stats.steps)
    )


# each family's parameters, with their least values
_FAMILY_PARAMS = {"Ramsey": {"m": 3, "n": 3}, "GallaiRamsey": {"m": 3, "k": 1}}


def _family_problem(family: str, params: dict) -> tuple[int, tuple, bool]:
    """A report family's palette, cycle rules (see ``forbidden_structures``), rainbow rule."""
    if family not in _FAMILY_PARAMS:
        raise BadParameters(f"unknown family {family!r}")
    for key, least in _FAMILY_PARAMS[family].items():
        v = params.get(key)
        if type(v) is not int or v < least:
            raise BadParameters(
                f"{family} params need an integer {key!r} of at least {least}, not {v!r}")
    if family == "Ramsey":
        return 2, ((params["m"], (1,)), (params["n"], (2,))), False
    k = params["k"]
    return k, ((params["m"], None),), k >= 3


def _run_threshold(
    family: str,
    params: dict,
    name: str,
    formula: int | None,
    budget: int | None,
    construction: ColoredCompleteGraph | None,
) -> SearchReport:
    """One search, up to order MAX_VERTICES, for the first order with no avoider.

    Induced colorings of an avoiding coloring still avoid, so a clean
    construction settles every order up to its own.  The search stops when
    it exhausts, reaches order MAX_VERTICES or runs out of ``budget`` steps.
    The witness is its deepest first coloring, or the construction if that
    is as deep.
    An exact value is checked against the closed form ``formula`` (None
    where none is known).
    """
    k, cycles, rainbow = _family_problem(family, params)
    forbidden = tuple(
        next(m for m, cs in cycles if cs is None or c in cs) for c in range(1, k + 1))
    # made before any shortcut, so that a bad budget is always refused
    s = _Search(AvoidanceProblem(MAX_VERTICES, k, forbidden, rainbow), budget)
    witness, stats = construction, SearchStats()
    if construction is not None:
        w = next(forbidden_structures(construction, rainbow, cycles), None)
        if w is not None:
            raise AssertionError(f"the {construction.n}-vertex construction contains a {w.kind}")
    if witness is None or witness.n < MAX_VERTICES:
        t0 = time.monotonic()
        s.run()
        stats = SearchStats(s.nodes, s.canonical, s.rejected, s.meter.steps,
                            int((time.monotonic() - t0) * 1000))
        depth = len(s.words)
        if witness is None or depth > witness.n:
            witness = ColoredCompleteGraph(depth, k, s.words[-1])
        if not s.exceeded and depth < MAX_VERTICES:
            if formula is not None and depth + 1 != formula:
                raise AssertionError(
                    f"search value {depth + 1} contradicts the closed form {formula} for {name}"
                )
            return SearchReport(family, params, depth + 1, depth + 1, depth + 1, witness, stats)
    return SearchReport(family, params, None, witness.n + 1, None, witness, stats)


def search_ramsey(m: int, n: int, budget: int | None = DEFAULT_BUDGET) -> SearchReport:
    """The least order whose 2-colorings all contain a C_m in color 1 or C_n in color 2.

    For odd 3 <= m <= n the construction is two K_{n-1} in color 2 joined in
    color 1.  Past 2n - 2 = 64 it is the 64-vertex one: its color-2 cliques
    have 32 vertices, too few for any C_n with n >= 33.
    """
    if m < 3 or n < 3:
        raise BadParameters(f"cycle orders m={m}, n={n} must be at least 3")
    construction = None
    if m % 2 == 1 and m <= n:
        # the coloring depends on n alone; capping both at 33 keeps m odd and m <= n
        half = MAX_VERTICES // 2 + 1
        construction, _ = build_ramsey_cycle_lower(min(m, half), min(n, half))
    return _run_threshold(
        "Ramsey", {"m": m, "n": n, "budget": budget}, f"R(C_{m}, C_{n})", ramsey_formula(m, n),
        budget, construction,
    )


def search_gallai_ramsey(m: int, k: int, budget: int | None = DEFAULT_BUDGET) -> SearchReport:
    """The least order forcing, in every rainbow-triangle-free k-coloring, a mono C_m.

    With k <= 2 every coloring is trivially rainbow-triangle-free, so this is
    the plain k-color cycle Ramsey question.  When the search runs out of
    budget, the report carries a lower bound backed by a verified witness:
    the last avoider found, or the doubled extremal coloring when m is odd.
    Past 64 vertices that coloring is cut to a 64-vertex slice: the largest
    doubling that fits, joined in its next color to its own first vertices.
    """
    if m < 3:
        raise BadParameters(f"cycle order m={m} must be at least 3")
    if k < 1:
        raise BadParameters(f"color count k={k} must be at least 1")
    construction = None
    if m % 2 == 1 and 5 <= m <= MAX_VERTICES + 1:
        ell = (m - 1) // 2
        j = min(k, (MAX_VERTICES // ell).bit_length() - 1)
        g, _ = build_extremal_odd(ell, j)
        if j < k and g.n < MAX_VERTICES:
            rest = induced(g, VertexSubset(g.n, (1 << MAX_VERTICES - g.n) - 1))
            g = substitute(complete_monochromatic(2, j + 1, j + 1), [g, rest])
        construction = ColoredCompleteGraph(g.n, k, g.edge_colors())
    return _run_threshold(
        "GallaiRamsey", {"m": m, "k": k, "budget": budget}, f"gr_{k}(K_3 : C_{m})",
        gallai_ramsey_formula(m, k), budget, construction,
    )


# -- certificates ---------------------------------------------------------------


@dataclass(frozen=True)
class CertificateCheck:
    valid: bool
    reason: str | None = None
    witness: Witness | None = None


def verify_certificate(report: SearchReport) -> CertificateCheck:
    """Recheck a report's arithmetic and witness with the detectors.

    Never re-runs the exhaustion; an exact value is taken on faith from the
    search and only the claims a witness can certify are recomputed.
    """
    try:
        k, cycles, rainbow = _family_problem(report.family, report.params)
    except BadParameters as exc:
        return CertificateCheck(False, str(exc))
    if report.value is not None:
        if report.lower != report.value or report.upper != report.value:
            return CertificateCheck(False, "exact value disagrees with its bounds")
        expected = report.value - 1
    else:
        if report.upper is not None:
            return CertificateCheck(False, "partial report carries an upper bound")
        expected = report.lower - 1
    g = report.witness
    if g is None:
        return CertificateCheck(False, "no witness coloring attached")
    if g.n != expected:
        return CertificateCheck(False, f"witness order {g.n}, expected {expected}")
    if g.k != k:
        return CertificateCheck(False, f"witness palette {g.k}, expected {k}")
    w = next(forbidden_structures(g, rainbow, cycles), None)
    if w is None:
        return CertificateCheck(True)
    if w.kind == RAINBOW_TRIANGLE:
        return CertificateCheck(False, "witness contains a rainbow triangle", w)
    return CertificateCheck(
        False, f"witness contains a monochromatic C_{len(w.vertices)} in color {w.color}", w
    )
