"""Substructure detectors that return checkable witnesses.

Every detector is deterministic: ties break toward the lowest-numbered
vertex, and witness vertex lists are canonicalized (cycles start at their
minimum vertex, and the lexicographically smaller orientation wins) so that
equal inputs give byte-equal output.  ``validate_witness`` recomputes each
claim directly on the host graph and is the final word on correctness.

Exact-length cycles and paths have one engine, the path-end table
``_PathEnds`` defined here, which the search's edge-time cycle test reads
too.  A table's walk settles whether some simple path of a given length
runs from a vertex to a target set and stops on the lexicographically first
one, so in ``_first_path``, on which ``find_mono_cycle`` and
``find_mono_path`` are built, one walk decides and returns the path.  Every
table counts its walk on a ``_StepMeter``, which only the search caps.

The rainbow-triangle scan recurses into Gallai splits.  If the colors
outside a set of one or two colors break a vertex set into blocks joined
pairwise in one color, every rainbow triangle in it lies inside one block
(Gallai 1967; Gyarfas & Simonyi 2004).  The scan, ``_first_rainbow``,
also returns the split it found for the vertex set it was given, and
``structure.gallai_partition`` takes its root split from there.  A vertex
set that no such set splits holds a rainbow triangle, and only there does
the scan fall back to a bitset test per vertex pair.

``check``, ``check_recipe`` and the certificate checks share one sweep,
``forbidden_structures``: it validates a whole claim before it scans, and it
scans only the colors present, so its cost does not grow with the palette.
"""

from __future__ import annotations

import itertools
import json
import operator
import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .coloring import BitGraph, ColoredCompleteGraph, bits, closure, row_union
from .errors import DegreePreconditionFailed, DiracPreconditionFailed

RAINBOW_TRIANGLE = "RainbowTriangle"
MONO_CYCLE = "MonoCycle"
MONO_PATH = "MonoPath"
HAMILTON_CYCLE = "HamiltonCycle"


@dataclass(frozen=True)
class Witness:
    """A found substructure: its kind, the color involved (if any), vertices in order."""

    kind: str
    vertices: tuple[int, ...]
    color: int | None = None

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "color": self.color, "vertices": list(self.vertices)}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "Witness":
        return cls(kind=d["kind"], vertices=tuple(d["vertices"]), color=d["color"])


def canonical_cycle(vs: Sequence[int]) -> tuple[int, ...]:
    """Rotate/reflect a cycle vertex list: minimum vertex first, smaller direction."""
    vs = list(vs)
    i = vs.index(min(vs))
    fwd = vs[i:] + vs[:i]
    bwd = [fwd[0]] + fwd[1:][::-1]
    return tuple(min(fwd, bwd))


def canonical_path(vs: Sequence[int]) -> tuple[int, ...]:
    vs = list(vs)
    return tuple(min(vs, vs[::-1]))


# -- exact-length searches ---------------------------------------------------


class _OutOfSteps(Exception):
    """A ``_StepMeter`` reached its cap."""


class _StepMeter:
    """A count of work done against a cap, None for no cap.

    A call of a path-end walk is one step; the search adds its nodes'
    weights (``search._Search._count_node``).
    """

    __slots__ = ("steps", "cap")

    def __init__(self, cap: int | None = None):
        self.steps = 0
        self.cap = sys.maxsize if cap is None else cap


class _PathEnds:
    """The path-end table of one color class inside ``universe``, filled on demand.

    Row u is every w at the far end of a simple path from u with m - 2 edges
    inside ``universe``, so an edge {u, x} with x outside closes a C_m exactly
    when row u meets x's neighbors.  ``ends[u]`` holds the ends found so far
    and ``ruled_out[u]`` the vertices shown not to be ends; the relation is
    symmetric, so each finding is stored both ways.  For m = 3 the rows are
    the adjacency rows themselves and nothing is left to find.  Each call of
    the walk is a step on ``meter``, and a walk that reaches the meter's cap
    raises ``_OutOfSteps``; a table given no meter gets an uncapped one.
    """

    __slots__ = ("masks", "universe", "m", "ends", "ruled_out", "meter")

    def __init__(self, masks: Sequence[int], universe: int, m: int,
                 meter: _StepMeter | None = None):
        self.masks = masks
        self.universe = universe
        self.m = m
        self.meter = _StepMeter() if meter is None else meter
        if m == 3:
            self.ends = masks
            self.ruled_out = [-1] * len(masks)
        else:
            self.ends = [0] * len(masks)
            self.ruled_out = [0] * len(masks)

    def closes(self, u: int, targets: int, path: list[int] | None = None) -> bool:
        """Does row u meet ``targets``, a set of vertices in ``universe``?

        Rows are only filled as far as questions need: a depth-first search
        from u over simple paths, stopped at the first target it reaches.  It
        tries neighbors in ascending order and cuts only dead branches, so the
        branch it stops on is the lexicographically first path from u to a
        target.  A walk that finds one appends that path to ``path``, last
        vertex first; an answer read from the rows appends nothing.
        """
        ends = self.ends
        if targets & ends[u]:
            return True
        targets &= ~self.ruled_out[u]
        if not targets:
            return False
        masks, universe = self.masks, self.universe
        bu = 1 << u
        meter = self.meter
        steps, cap = meter.steps, meter.cap

        def grow(x: int, seen: int, left: int) -> bool:
            nonlocal steps
            if steps >= cap:
                raise _OutOfSteps
            steps += 1
            avail = universe & ~seen
            cand = masks[x] & avail
            if left == 2:
                # a neighbor's neighbor is never the neighbor itself
                found = 0
                while cand:
                    low = cand & -cand
                    found |= masks[low.bit_length() - 1]
                    cand ^= low
                found &= avail
                new = found & ~ends[u]
                if new:
                    ends[u] |= new
                    while new:
                        low = new & -new
                        ends[low.bit_length() - 1] |= bu
                        new ^= low
                found &= targets
                if found and path is not None:
                    # the lowest neighbor that reaches a target (cand is used up)
                    y = next(y for y in bits(masks[x] & avail) if masks[y] & found)
                    last = masks[y] & found
                    path.extend(((last & -last).bit_length() - 1, y, x))
                return bool(found)
            if left > 3:
                # exact-steps walk cut: a walk of the remaining length must end
                # on a target (with three edges left it costs what it saves)
                reach = cand
                for _ in range(left - 1):
                    reach = row_union(masks, reach) & avail
                if not reach & targets:
                    return False
            while cand:
                low = cand & -cand
                if grow(low.bit_length() - 1, seen | low, left - 1):
                    if path is not None:
                        path.append(x)
                    return True
                cand ^= low
            return False

        try:
            hit = grow(u, bu, self.m - 2)
        finally:
            meter.steps = steps
        if hit:
            return True
        self.ruled_out[u] |= targets
        for w in bits(targets):
            self.ruled_out[w] |= bu
        return False


def _first_path(
    masks: Sequence[int], x: int, edges: int, universe: int, targets: int
) -> list[int] | None:
    """The lexicographically first simple path from x with ``edges`` edges, or None.

    Its other vertices lie in ``universe`` (x need not) and its last one in
    ``targets``, a subset of ``universe``.  When x's component has room for
    the path, one walk of a fresh path-end table decides whether it exists
    and returns it.  A one-edge path is x and its lowest neighbor in
    ``targets``: a C_3 table's rows are the adjacency rows, so it never walks.
    """
    if closure(masks, 1 << x, universe | 1 << x).bit_count() <= edges:
        return None
    if edges == 1:
        last = masks[x] & targets
        return [x, (last & -last).bit_length() - 1] if last else None
    path: list[int] = []
    if not _PathEnds(masks, universe, edges + 2).closes(x, targets, path):
        return None
    path.reverse()
    return path


# -- detectors ---------------------------------------------------------------


def _gallai_blocks(
    rows: Mapping[int, Sequence[int]], cand: tuple[int, ...], s: int
) -> list[int] | None:
    """The blocks of vertex set s for the between-color set ``cand``, or None.

    ``rows[c]`` holds the adjacency bitsets of color c, and ``cand`` is one
    color or two.  The blocks are the components, inside s, of the colors
    outside ``cand``, sorted by least vertex; None when they collapse into
    one, or when two of them are not joined in one color.  Every pair has
    one color, so y's neighbors in the outside colors are s minus y minus
    y's ``cand`` row, one row per vertex.  Each breadth-first step walks the
    smaller side: a frontier vertex keeps, of the vertices not reached yet,
    those in its ``cand`` row, and a step whose rows keep none has reached
    the rest of s; or, the relation being symmetric, a vertex is reached
    when the frontier leaves its ``cand`` row.

    With no rainbow triangle in s, any two blocks are joined in one color
    of ``cand``.  A vertex w outside a block sees the two ends of an
    outside-colored edge uv in it in one color, or uvw is rainbow; the block
    is connected by such edges, so w sees all of it in one color.  Applied
    from both sides, the color of an edge xy between two blocks depends on
    neither x nor y.  One color joins the blocks on any coloring.  For two,
    c and d, the join is checked: each vertex must see s outside its block
    in color c where its block's least vertex does, and then every edge
    between two blocks has the color of the edge between their least
    vertices.

    Split lemma: on any coloring, the sets that split s (blocks returned)
    are few.  (1) At most one single color splits s.  If c does, every
    edge between its blocks has color c, so the c-edges connect s, and a
    set without c leaves them outside: one component.  (2) So when c splits
    s, every other set that splits it is a pair {c, d}, whose blocks refine
    c's (fewer colors lie outside it): as many blocks or more.  (3) When no
    single color splits s, at most one pair does, and both its colors meet
    s's least vertex x inside s.  Take a pair {c, d} that splits s.  Were
    the blocks' d-joins disconnected, the components of the colors other
    than c would be unions of blocks along them, and c alone would split s;
    so the d-joins connect the blocks, and so do the c-joins.  Each color
    then connects s, any set that splits s contains both, and x's block is
    joined to another block in c and to another in d.
    """
    first = rows[cand[0]]
    both = first if len(cand) == 1 else list(map(operator.or_, first, rows[cand[1]]))
    blocks = []
    left = s
    while left:
        comp = frontier = left & -left
        left ^= comp
        while frontier and left:
            if frontier.bit_count() <= left.bit_count():
                keep = left
                while frontier and keep:
                    low = frontier & -frontier
                    frontier ^= low
                    keep &= both[low.bit_length() - 1]
                reached = left ^ keep
            else:
                reached = 0
                rest = left
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if frontier & ~both[low.bit_length() - 1]:
                        reached |= low
            frontier = reached
            comp |= reached
            left ^= reached
        if comp == s:
            return None
        blocks.append(comp)
    if len(cand) > 1:
        for comp in blocks:
            out = s ^ comp
            rest = comp & (comp - 1)
            want = first[(comp ^ rest).bit_length() - 1] & out
            while rest:
                low = rest & -rest
                rest ^= low
                if first[low.bit_length() - 1] & out != want:
                    return None
    return blocks


def _first_split(
    rows: Mapping[int, Sequence[int]], cands: Iterable[tuple[int, ...]], s: int
) -> list[int] | None:
    """The blocks of the first between-color set in ``cands`` that splits s, or None."""
    return next((b for b in (_gallai_blocks(rows, c, s) for c in cands) if b is not None), None)


def _two_colored(rows: Mapping[int, Sequence[int]], palette: Sequence[int], s: int) -> bool:
    """Do all pairs inside s take a color of ``palette``, one color or two?"""
    first = rows[palette[0]]
    second = rows[palette[-1]]
    rest = s
    while rest:
        low = rest & -rest
        rest ^= low
        y = low.bit_length() - 1
        if (s ^ low) & ~(first[y] | second[y]):
            return False
    return True


def _first_rainbow(
    rows: Mapping[int, Sequence[int]],
    colors: Sequence[int],
    s: int,
    at_x: Sequence[int] | None = None,
) -> tuple[tuple[int, int, int] | None, list[int] | None]:
    """The lexicographically first rainbow triangle inside s, or None, and s's split.

    The split is the blocks of the first between-color set that splits s
    (``_gallai_blocks``), in the order tried: each color meeting s's least
    vertex x inside s, then each pair of them.  ``at_x`` lists those colors
    when the caller has them.  The split is None when a triangle on x turns
    up before pairs are tried, or when no set splits s, which then holds a
    rainbow triangle or is one vertex; so s always gets its split when it
    holds no rainbow triangle, and ``structure.gallai_partition`` reads it.

    When a between-color set splits s, no rainbow triangle meets two
    blocks: its edges between blocks would have one color of the set, or,
    with two colors, two of them would have one.  So it lies inside a
    block, and the least of the blocks' first triangles is s's.  Only sets
    of colors that meet x inside s can split it, since x sees every other
    block in the set's colors; when no single color splits s, a pair that
    does has both colors at x (the split lemma in ``_gallai_blocks``).
    With no rainbow triangle in s, some set splits it (Gallai 1967).  So
    when no set splits s, s holds a rainbow triangle, and the pair scan
    finds the first one.  When no single color splits s, x is scanned
    before pairs of colors are tried: on a coloring far from Gallai, such
    as a uniform random one, the first triangle lies on x.  A block that
    uses at most two colors holds no rainbow triangle at all and is not
    entered.
    """
    x = s & -s
    if at_x is None:
        at_x = [d for d, r in rows.items() if r[x.bit_length() - 1] & s]
    blocks = _first_split(rows, ((c,) for c in at_x), s)
    if blocks is None:
        found = _pair_scan(rows, colors, s, x)
        if found is not None:
            return found, None
        blocks = _first_split(rows, itertools.combinations(at_x, 2), s)
        if blocks is None:
            return _pair_scan(rows, colors, s, s ^ x), None
    best = None
    for b in blocks:
        if b.bit_count() < 3:
            continue
        y = (b & -b).bit_length() - 1
        if best is not None and best[0] < y:
            break
        at_y = [d for d, r in rows.items() if r[y] & b]
        if len(at_y) <= 2 and _two_colored(rows, at_y, b):
            continue
        found = _first_rainbow(rows, colors, b, at_y)[0]
        if found is not None and (best is None or found < best):
            best = found
    return best, blocks


def _pair_scan(
    rows: Mapping[int, Sequence[int]], colors: Sequence[int], s: int, us: int
) -> tuple[int, int, int] | None:
    """The first rainbow triangle inside s whose least vertex is in ``us``, or None.

    For u < v in s, with c the color of uv and M_d[y] the color-d row of y,
    a third vertex w > v closes a rainbow triangle exactly when w lies
    outside M_c[u] | M_c[v] | (M_d[u] & M_d[v] over every d).  The least v
    with such a w, for the least u, and then its lowest w give the
    lexicographically first triangle.  Only colors that meet u inside s can
    be shared by uw and vw, and a vertex met by fewer than two of them lies
    on no rainbow triangle in s.
    """
    while us:
        bu = us & -us
        us ^= bu
        u = bu.bit_length() - 1
        at_u = [(r, r[u]) for r in rows.values() if r[u] & s]
        if len(at_u) < 2:
            continue
        vs = s & ~((bu << 1) - 1)
        while vs:
            bv = vs & -vs
            vs ^= bv
            v = bv.bit_length() - 1
            rc = rows[colors[v * (v - 1) // 2 + u]]
            shared = rc[u] | rc[v]
            for r, y in at_u:
                shared |= y & r[v]
            cand = vs & ~shared
            if cand:
                return (u, v, (cand & -cand).bit_length() - 1)
    return None


def find_rainbow_triangle(g: ColoredCompleteGraph) -> Witness | None:
    """First triangle (lex order) whose three edges have three distinct colors.

    The scan recurses into Gallai splits (``_first_rainbow``): a split
    confines every rainbow triangle to one block, and only a vertex set
    that no between-color set splits, which then holds a rainbow triangle,
    falls back to a bitset test per pair.  So a coloring with no rainbow
    triangle is cleared without any pair scan.  It reads the graph's own
    class rows and never writes them.
    """
    rows = g._rows()
    if len(rows) < 3:
        return None
    found = _first_rainbow(rows, g.edge_colors(), (1 << g.n) - 1)[0]
    return None if found is None else Witness(RAINBOW_TRIANGLE, found)


def _check_color(g: ColoredCompleteGraph, color: int) -> None:
    if not 1 <= color <= g.k:
        raise ValueError(f"color {color} outside palette 1..{g.k}")


def _has_odd_cycle(masks: Sequence[int]) -> bool:
    """Does the graph with these adjacency rows hold an odd cycle?

    A breadth-first search by layers: an edge joins two vertices of one
    layer or of two consecutive layers, and the graph holds an odd cycle
    exactly when some layer holds an edge.
    """
    left = (1 << len(masks)) - 1
    while left:
        layer = seen = left & -left
        while layer:
            reach = row_union(masks, layer)
            if reach & layer:
                return True
            layer = reach & ~seen
            seen |= layer
        left &= ~seen
    return False


def find_mono_cycle(g: ColoredCompleteGraph, color: int, m: int) -> Witness | None:
    """A cycle of exactly m vertices inside one color class, or None.

    Anchor s is the cycle's least vertex: a path of m - 1 edges from s through
    the vertices above it, back to a neighbor of s, so s is at most n - m.
    For odd m, a class with no odd cycle, such as the bipartite classes of
    the extremal colorings, is cleared by one breadth-first search.
    """
    _check_color(g, color)
    if m < 3:
        raise ValueError(f"cycle order {m} must be at least 3")
    masks = g.class_masks(color)
    if m % 2 and not _has_odd_cycle(masks):
        return None
    full = (1 << g.n) - 1
    for s in range(g.n - m + 1):
        upper = full & ~((1 << (s + 1)) - 1)
        found = _first_path(masks, s, m - 1, upper, masks[s] & upper)
        if found is not None:
            return Witness(MONO_CYCLE, canonical_cycle(found), color)
    return None


def forbidden_structures(
    g: ColoredCompleteGraph, rainbow: bool, cycles: Sequence[tuple[int, Sequence[int] | None]]
) -> Iterator[Witness]:
    """Every forbidden structure of a claim in g, as witnesses.

    The claim forbids rainbow triangles when ``rainbow`` is set, and each
    rule (m, colors) in ``cycles`` a monochromatic C_m in the listed colors,
    or in every color when ``colors`` is None.  Every order and listed color
    is checked before the scan, so a bad claim raises ValueError whatever g
    holds.  The rainbow triangle comes first, then rule by rule the first C_m
    of each color present (an absent one holds no cycle): ascending for all
    colors, in the given order for a list.
    """
    for m, colors in cycles:
        for c in colors or ():
            _check_color(g, c)
        if m < 3:
            raise ValueError(f"cycle order {m} must be at least 3")
    if rainbow:
        w = find_rainbow_triangle(g)
        if w is not None:
            yield w
    present = g.colors_used()
    for m, colors in cycles:
        for c in present if colors is None else [c for c in colors if c in present]:
            w = find_mono_cycle(g, c, m)
            if w is not None:
                yield w


def _exact_path(masks: Sequence[int], n: int, p: int, color: int | None) -> Witness | None:
    """The lexicographically first path on exactly p >= 2 of n vertices, as a witness, or None."""
    full = (1 << n) - 1
    for s in range(n):
        found = _first_path(masks, s, p - 1, full, full)
        if found is not None:
            return Witness(MONO_PATH, canonical_path(found), color)
    return None


def find_mono_path(g: ColoredCompleteGraph, color: int, p: int) -> Witness | None:
    """A path of exactly p vertices inside one color class, or None."""
    _check_color(g, color)
    if p < 1:
        raise ValueError(f"path order {p} must be at least 1")
    if p == 1:
        return Witness(MONO_PATH, (0,), color)
    return _exact_path(g.class_masks(color), g.n, p, color)


# -- constructive engines ----------------------------------------------------


def _close_into_cycle(masks: Sequence[int], path: list[int]) -> list[int] | None:
    """Reorder a path whose endpoint neighborhoods lie on it into a cycle.

    Uses the crossing-pair pigeonhole: if deg(first) + deg(last) >= len(path)
    there is an i with first ~ path[i+1] and last ~ path[i]; the two path
    segments then close up.  Returns None only when no crossing exists.
    """
    u = path[0]
    w = path[-1]
    if masks[w] >> u & 1:
        return list(path)
    mu = masks[u]
    mw = masks[w]
    for i in range(1, len(path) - 1):
        if (mu >> path[i + 1] & 1) and (mw >> path[i] & 1):
            return path[: i + 1] + path[i + 1 :][::-1]
    return None


def _grow_path_rotation(masks: Sequence[int], allowed: int, start: int, target: int) -> list[int]:
    """Grow a path from ``start`` inside ``allowed`` by extension and rotation.

    Greedily extends both ends (lowest neighbor first); when stuck, closes the
    maximal path into a cycle and reopens it at a fresh component vertex.
    Returns as soon as the path reaches ``target`` vertices, else returns a
    path spanning start's whole component.  Callers guarantee the degree
    bounds that make the closing step succeed.
    """
    path = [start]
    on = 1 << start
    while True:
        while len(path) < target:
            ext = masks[path[-1]] & allowed & ~on
            if ext:
                v = (ext & -ext).bit_length() - 1
                path.append(v)
                on |= 1 << v
                continue
            ext = masks[path[0]] & allowed & ~on
            if ext:
                v = (ext & -ext).bit_length() - 1
                path.insert(0, v)
                on |= 1 << v
                continue
            break
        if len(path) >= target:
            return path
        outside = allowed & ~on
        w = -1
        for cand in bits(outside):
            if masks[cand] & on:
                w = cand
                break
        if w < 0:
            return path  # spans its component
        cyc = _close_into_cycle(masks, path)
        if cyc is None:  # pragma: no cover - ruled out by caller preconditions
            raise AssertionError("rotation step found no crossing pair")
        hit = masks[w] & on
        j = next(i for i, pv in enumerate(cyc) if hit >> pv & 1)
        path = [w] + cyc[j:] + cyc[:j]
        on |= 1 << w


def dirac_hamiltonian(h: BitGraph) -> Witness:
    """Hamilton cycle of a graph meeting the minimum-degree bound 2*deg >= n."""
    n = h.n
    if n < 3:
        raise ValueError(f"order {n} < 3 admits no cycle")
    for v in range(n):
        d = h.degree(v)
        if 2 * d < n:
            raise DiracPreconditionFailed(v, d, n)
    full = (1 << n) - 1
    path = _grow_path_rotation(h.masks, full, 0, n)
    assert len(path) == n
    cyc = _close_into_cycle(h.masks, path)
    assert cyc is not None
    return Witness(HAMILTON_CYCLE, canonical_cycle(cyc))


def erdos_gallai_path(h: BitGraph, k_edges: int, color: int | None = None) -> Witness | None:
    """A path with k_edges edges, guaranteed when 2*e(G) > (k_edges-1)*n.

    Follows the classical reduction: repeatedly drop a vertex of degree at
    most (k-1)/2 (the edge bound survives), and once the minimum degree
    reaches k/2 grow a path by extension and rotation inside one component.
    A component swallowed whole is too small to matter and is discarded.
    Below the edge bound this falls back to exact search with no guarantee.
    ``color`` is recorded on the witness: the color class ``h`` was taken from.
    """
    if k_edges < 1:
        raise ValueError(f"path length {k_edges} must be at least 1")
    n = h.n
    target = k_edges + 1
    masks = h.masks
    active = (1 << n) - 1
    guaranteed: bool | None = None
    while active:
        cnt = active.bit_count()
        e2 = sum((masks[v] & active).bit_count() for v in bits(active))
        bound = e2 > (k_edges - 1) * cnt
        if guaranteed is None:
            guaranteed = bound
        if not bound:
            break
        peeled = False
        for v in bits(active):
            if 2 * (masks[v] & active).bit_count() <= k_edges - 1:
                active ^= 1 << v
                peeled = True
                break
        if peeled:
            continue
        start = (active & -active).bit_length() - 1
        comp = closure(masks, 1 << start, active)
        path = _grow_path_rotation(masks, comp, start, target)
        if len(path) >= target:
            return Witness(MONO_PATH, canonical_path(path[:target]), color)
        active &= ~comp
    if guaranteed:  # pragma: no cover - the reduction always produces a path
        raise AssertionError("edge bound held but no path was produced")
    return _exact_path(masks, n, target, color)


def colored_path_split(
    g: ColoredCompleteGraph, red: int, blue: int, a: int, b: int
) -> Witness:
    """A red path of order a or a blue path of order b.

    Requires deg_red(v) + deg_blue(v) >= a + b - 3 for every vertex (checked)
    and a + b >= 3.  Whichever color carries more than its share of edges is
    dense enough for the edge-count path engine; red is tried first.
    """
    if red == blue:
        raise ValueError("red and blue must be distinct colors")
    for c in (red, blue):
        if not 1 <= c <= g.k:
            raise ValueError(f"color {c} outside palette 1..{g.k}")
    if a < 0 or b < 0 or a + b < 3:
        raise ValueError(f"path orders a={a}, b={b} need a,b >= 0 and a+b >= 3")
    n = g.n
    red_masks = g.class_masks(red)
    blue_masks = g.class_masks(blue)
    required = a + b - 3
    for v in range(n):
        dr = red_masks[v].bit_count()
        db = blue_masks[v].bit_count()
        if dr + db < required:
            raise DegreePreconditionFailed(v, dr, db, required)
    if sum(m.bit_count() for m in red_masks) > n * (a - 2):
        return _dense_color_path(g, red, a)
    assert sum(m.bit_count() for m in blue_masks) > n * (b - 2)
    return _dense_color_path(g, blue, b)


def _dense_color_path(g: ColoredCompleteGraph, color: int, order: int) -> Witness:
    if order <= 1:
        # an order-0 request is vacuous; promote to a single vertex
        return Witness(MONO_PATH, (0,), color)
    w = erdos_gallai_path(g.color_class(color), order - 1, color)
    assert w is not None
    return w


# -- validation ---------------------------------------------------------------


def validate_witness(host, w: Witness) -> bool:
    """Recompute a witness claim directly on the host graph.

    ``host`` is a ColoredCompleteGraph for color-aware kinds; HamiltonCycle
    (and color-free cycle/path checks) accept any BitGraph.  RainbowTriangle
    and HamiltonCycle witnesses carry no color; one that names a color fails.
    """
    vs = list(w.vertices)
    if len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < host.n for v in vs):
        return False
    colored = isinstance(host, ColoredCompleteGraph)
    if colored and w.kind in (MONO_CYCLE, MONO_PATH) and w.color not in range(1, host.k + 1):
        return False
    if w.kind in (RAINBOW_TRIANGLE, HAMILTON_CYCLE) and w.color is not None:
        return False

    def edge_ok(u: int, v: int) -> bool:
        if colored:
            return host.color_of(u, v) == w.color
        return host.has_edge(u, v)

    if w.kind == RAINBOW_TRIANGLE:
        if not colored or len(vs) != 3:
            return False
        a, b, c = vs
        cols = {host.color_of(a, b), host.color_of(a, c), host.color_of(b, c)}
        return len(cols) == 3
    if w.kind == MONO_CYCLE:
        if len(vs) < 3:
            return False
        return all(edge_ok(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))
    if w.kind == MONO_PATH:
        if len(vs) < 1:
            return False
        return all(edge_ok(vs[i], vs[i + 1]) for i in range(len(vs) - 1))
    if w.kind == HAMILTON_CYCLE:
        if colored or sorted(vs) != list(range(host.n)) or len(vs) < 3:
            return False
        return all(host.has_edge(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs)))
    return False
