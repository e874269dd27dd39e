"""Detectors against independent oracles and their own witness validator."""

from __future__ import annotations

import itertools
import random

import pytest

from gallai_lab import detectors
from gallai_lab.coloring import (
    BitGraph,
    ColoredCompleteGraph,
    build,
    closure,
    complete_monochromatic,
    pair_index,
    relabel,
    substitute,
)
from gallai_lab.constructions import build_extremal_odd, build_ramsey_cycle_lower, random_gallai
from gallai_lab.detectors import (
    HAMILTON_CYCLE,
    MONO_CYCLE,
    MONO_PATH,
    RAINBOW_TRIANGLE,
    Witness,
    _first_path,
    _PathEnds,
    canonical_cycle,
    canonical_path,
    colored_path_split,
    dirac_hamiltonian,
    erdos_gallai_path,
    find_mono_cycle,
    find_mono_path,
    find_rainbow_triangle,
    forbidden_structures,
    validate_witness,
)
from gallai_lab.errors import DegreePreconditionFailed, DiracPreconditionFailed
from gallai_lab.search import _path_end_tables

from oracles import (
    cycle_exists_dp,
    cycle_through_edge_bruteforce,
    first_sequence_bruteforce,
    hamilton_cycle_exists_bruteforce,
    path_exists_dfs,
    rainbow_triangles_bruteforce,
    random_bitgraph,
    random_coloring,
    random_min_degree_graph,
)


# -- canonical forms -----------------------------------------------------------


def test_canonical_cycle_rotation_and_reflection():
    assert canonical_cycle((3, 1, 4, 2)) == (1, 3, 2, 4)
    # all rotations/reflections of one cycle map to the same tuple
    base = (0, 2, 5, 3, 7)
    images = set()
    seq = list(base)
    for _ in range(5):
        seq = seq[1:] + seq[:1]
        images.add(canonical_cycle(tuple(seq)))
        images.add(canonical_cycle(tuple(reversed(seq))))
    assert len(images) == 1
    assert images.pop()[0] == 0


def test_canonical_path_prefers_smaller_end():
    assert canonical_path((4, 2, 7)) == (4, 2, 7)
    assert canonical_path((7, 2, 4)) == (4, 2, 7)


# -- rainbow triangles -----------------------------------------------------------


# P_4 in two colors: color 1 on the path 0-1-2-3, color 2 on the other pairs.
# It is prime, so only the two-color set {1, 2} splits a blow-up of it.
P4 = ColoredCompleteGraph(4, 2, [1, 2, 1, 2, 2, 1])


def _p4_blow_up(rng, sizes: list[int], k: int, edits: int = 0) -> ColoredCompleteGraph:
    # each P_4 vertex becomes a random Gallai coloring on colors 3..k+2, with
    # ``edits`` pairs recolored at random inside it
    parts = []
    for size in sizes:
        part = random_gallai(size, k, rng.randrange(2**32))
        if size > 1:
            part = _recolored(rng, part, edits)
        parts.append(ColoredCompleteGraph(size, k + 2, [c + 2 for c in part.edge_colors()]))
    return substitute(P4, parts)


def _shuffled(rng, g: ColoredCompleteGraph) -> ColoredCompleteGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _unjoined_split(rng, sizes: list[int], k: int) -> ColoredCompleteGraph:
    # a P_4 blow-up with one edge between parts 1..3 turned from color 1 to 2
    # or back: {1, 2} still splits it into the parts, but two of them are no
    # longer joined in one color, and the rainbow triangles run across them
    # and miss vertex 0
    g = _p4_blow_up(rng, sizes, k)
    starts = [sum(sizes[:i]) for i in range(4)]
    i, j = sorted(rng.sample(range(1, 4), 2))
    u = rng.randrange(starts[i], starts[i] + sizes[i])
    v = rng.randrange(starts[j], starts[j] + sizes[j])
    flat = list(g.edge_colors())
    flat[pair_index(u, v)] = 3 - flat[pair_index(u, v)]
    return ColoredCompleteGraph(g.n, g.k, flat)


def _shuffled_staircase(rng, n: int, k: int) -> ColoredCompleteGraph:
    # color (u mod k) + 1 on each pair u < v, then relabeled at random: a
    # Gallai coloring that splits off one vertex at a time
    stairs = [u % k + 1 for v in range(1, n) for u in range(v)]
    return _shuffled(rng, ColoredCompleteGraph(n, k, stairs))


def _recolored(rng, g: ColoredCompleteGraph, edits: int) -> ColoredCompleteGraph:
    flat = list(g.edge_colors())
    for _ in range(edits):
        flat[rng.randrange(len(flat))] = rng.randint(1, g.k)
    return ColoredCompleteGraph(g.n, g.k, flat)


def test_rainbow_matches_triple_enumeration():
    rng = random.Random(10)
    hosts = [random_coloring(rng, rng.randint(3, 14), rng.randint(1, 5)) for _ in range(120)]
    for _ in range(60):
        sizes = [rng.randint(1, 4) for _ in range(4)]
        k = rng.randint(1, 4)
        hosts.append(_p4_blow_up(rng, sizes, k))
        hosts.append(_recolored(rng, _p4_blow_up(rng, sizes, k), rng.randint(1, 3)))
        hosts.append(_unjoined_split(rng, [rng.randint(1, 2)] + sizes[1:], k))
        # rainbow triangles inside the parts, whose vertices interleave
        hosts.append(_shuffled(rng, _p4_blow_up(rng, sizes, k + 2, rng.randint(1, 2))))
        stairs = _shuffled_staircase(rng, rng.randint(3, 14), rng.randint(3, 5))
        hosts += [stairs, _recolored(rng, stairs, rng.randint(1, 3))]
    for g in hosts:
        all_triples = rainbow_triangles_bruteforce(g)
        w = find_rainbow_triangle(g)
        if not all_triples:
            assert w is None
        else:
            assert w is not None and w.kind == RAINBOW_TRIANGLE
            assert w.vertices == min(all_triples), g.edge_colors()
            assert validate_witness(g, w)


def test_rainbow_first_witness_at_64_vertices():
    # Uniform random colorings put the first rainbow triangle on vertices
    # 0..3; Gallai hosts with a few recolored edges, P_4 blow-ups and shuffled
    # staircases put it anywhere, and a split into blocks that are not
    # joined in one color puts it across them.
    rng = random.Random(12)
    hosts = [build_extremal_odd(2, 5)[0]]
    for k in (3, 4, 5):
        g = random_gallai(64, k, rng.randrange(2**32))
        hosts += [g, _recolored(rng, g, rng.randint(1, 3))]
    for k in (3, 4):
        hosts.append(random_coloring(rng, 64, k))
        g = _p4_blow_up(rng, [16] * 4, k)
        hosts += [g, _recolored(rng, g, 2), _unjoined_split(rng, [16] * 4, k)]
        hosts.append(_shuffled(rng, _p4_blow_up(rng, [16] * 4, k, 1)))
        g = _shuffled_staircase(rng, 64, k)
        hosts += [g, _recolored(rng, g, 2)]
    found = []
    for g in hosts:
        all_triples = rainbow_triangles_bruteforce(g)
        w = find_rainbow_triangle(g)
        if not all_triples:
            assert w is None
        else:
            assert w is not None and w.vertices == min(all_triples)
            assert validate_witness(g, w)
            found.append(w.vertices)
    assert found and max(max(t) for t in found) > 3


def test_rainbow_small_orders_and_unused_colors():
    assert find_rainbow_triangle(ColoredCompleteGraph(1, 3, [])) is None
    assert find_rainbow_triangle(ColoredCompleteGraph(2, 3, [2])) is None
    assert find_rainbow_triangle(ColoredCompleteGraph(3, 3, [1, 2, 3])).vertices == (0, 1, 2)
    assert find_rainbow_triangle(ColoredCompleteGraph(3, 3, [1, 2, 2])) is None
    rng = random.Random(13)
    for n in (3, 8, 20, 64):
        # a palette of six that draws on two of its colors
        two = [rng.choice((2, 5)) for _ in range(n * (n - 1) // 2)]
        assert find_rainbow_triangle(ColoredCompleteGraph(n, 6, two)) is None


def test_rainbow_none_on_two_colors():
    rng = random.Random(11)
    for _ in range(30):
        g = random_coloring(rng, rng.randint(3, 12), 2)
        assert find_rainbow_triangle(g) is None


# -- exact-length monochromatic cycles --------------------------------------------


def _induced(masks, subset) -> list[int]:
    # the adjacency rows of the subgraph on subset, relabeled 0..len-1
    return [sum(1 << i for i, w in enumerate(subset) if masks[v] >> w & 1) for v in subset]


def test_subset_dp_oracle_matches_permutation_bruteforce():
    # the absence claims of the acceptance and construction tests rest on
    # the DP oracle: a C_m exists exactly when some m vertices carry a
    # Hamilton cycle
    rng = random.Random(19)
    seen = set()
    for _ in range(100):
        n = rng.randint(3, 8)
        g = random_bitgraph(rng, n, rng.uniform(0.2, 0.8))
        for m in range(3, n + 1):
            expect = any(
                hamilton_cycle_exists_bruteforce(_induced(g.masks, subset), m)
                for subset in itertools.combinations(range(n), m)
            )
            assert cycle_exists_dp(g.masks, n, m) == expect, (g.masks, m)
            seen.add((m == n, expect))
    assert seen == {(False, False), (False, True), (True, False), (True, True)}


def test_mono_cycle_matches_subset_dp():
    rng = random.Random(12)
    checked = 0
    for _ in range(250):
        n = rng.randint(3, 12)
        k = rng.randint(1, 3)
        g = random_coloring(rng, n, k)
        c = rng.randint(1, k)
        m = rng.randint(3, n)
        w = find_mono_cycle(g, c, m)
        expect = cycle_exists_dp(g.class_masks(c), n, m)
        assert (w is not None) == expect
        if w is not None:
            assert w.kind == MONO_CYCLE and w.color == c
            assert len(w.vertices) == m
            assert validate_witness(g, w)
            checked += 1
    assert checked > 50


def test_cycle_through_a_fixed_edge_matches_bruteforce():
    # the path-end table against permutation brute force: with the anchor a
    # outside the table's universe, the edge {a,b} closes a C_m exactly when
    # row b meets a's neighbors; the edge may or may not be in the masks, and
    # half the graphs are bipartite, where odd m never closes
    rng = random.Random(21)
    hits = misses = 0
    for trial in range(400):
        n = rng.randint(4, 8)
        g = random_bitgraph(rng, n, rng.uniform(0.25, 0.8))
        masks = list(g.masks)
        if trial % 2:
            side = [rng.random() < 0.5 for _ in range(n)]
            masks = [
                sum(1 << w for w in range(n) if (masks[v] >> w) & 1 and side[v] != side[w])
                for v in range(n)
            ]
        a, b = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            masks[a] |= 1 << b
            masks[b] |= 1 << a
        else:
            masks[a] &= ~(1 << b)
            masks[b] &= ~(1 << a)
        # the search's layout: the anchor's universe is every vertex below it
        # when b < a, else every vertex but the anchor
        allowed = [x for x in range(a if b < a else n) if x != a]
        universe = sum(1 << x for x in allowed)
        m = rng.randint(4, len(allowed) + 1) if len(allowed) >= 3 else 4
        found = _PathEnds(masks, universe, m).closes(b, masks[a] & universe)
        expect = cycle_through_edge_bruteforce(masks, a, b, m, allowed)
        assert found == expect, (masks, a, b, m)
        if found:
            hits += 1
        else:
            misses += 1
    assert hits > 50 and misses > 50
    # every (u, c) row of the search's tables for a random prefix 0..v-1; the
    # oracle closes the path u ... w through a new vertex v joined to w alone.
    # A question about a random target set comes first, then every single
    # vertex in random order, so answers also come from the remembered rows
    for _ in range(20):
        v = rng.randint(3, 6)
        k = rng.randint(1, 3)
        g = random_coloring(rng, v, k)
        forbidden = [rng.randint(3, v + 2) for _ in range(k)]
        masks = [None] + [list(g.class_masks(c)) + [0] for c in range(1, k + 1)]
        tables = _path_end_tables(masks, forbidden, v)
        for c, m in enumerate(forbidden, 1):
            table = tables[c]
            if m > v + 1:
                assert table is None
                continue
            rows = []
            for u in range(v):
                row = 0
                for w in range(v):
                    joined = masks[c][:v] + [1 << w]
                    joined[w] |= 1 << v
                    if cycle_through_edge_bruteforce(joined, v, u, m, range(v)):
                        row |= 1 << w
                rows.append(row)
            for u in range(v):
                some = rng.randrange(1 << v)
                assert table.closes(u, some) == bool(rows[u] & some), (g.edge_colors(), c, u)
            pairs = [(u, w) for u in range(v) for w in range(v)]
            rng.shuffle(pairs)
            for u, w in pairs:
                assert table.closes(u, 1 << w) == bool(rows[u] >> w & 1), (g.edge_colors(), c, u, w)
            assert table.ends[:v] == rows


def test_mono_cycle_edge_cases():
    g = complete_monochromatic(6, 2, 1)
    assert find_mono_cycle(g, 1, 7) is None  # longer than the graph
    assert find_mono_cycle(g, 2, 3) is None  # empty class
    w = find_mono_cycle(g, 1, 6)
    assert w is not None and w.vertices == (0, 1, 2, 3, 4, 5)
    with pytest.raises(ValueError):
        find_mono_cycle(g, 1, 2)
    # the palette is checked before any early answer
    for color, m in ((3, 3), (7, 3), (7, 7), (0, 5)):
        with pytest.raises(ValueError):
            find_mono_cycle(g, color, m)


# -- the claim sweep -----------------------------------------------------------


def _sweep_by_oracles(g, rainbow, cycles):
    """(kind, color, order) of every structure the claim forbids, by brute force, in sweep order."""
    out = []
    if rainbow and rainbow_triangles_bruteforce(g):
        out.append((RAINBOW_TRIANGLE, None, 3))
    for m, colors in cycles:
        for c in range(1, g.k + 1) if colors is None else colors:
            if cycle_exists_dp(g.class_masks(c), g.n, m):
                out.append((MONO_CYCLE, c, m))
    return out


def test_sweep_matches_the_oracles_in_order():
    rng = random.Random(41)
    hosts = [random_coloring(rng, rng.randint(1, 12), rng.randint(1, 5)) for _ in range(200)]
    hosts += [random_gallai(rng.randint(1, 12), rng.randint(1, 5), rng.randrange(10**6))
              for _ in range(100)]
    seen = set()
    for g in hosts:
        rainbow = rng.random() < 0.75
        cycles = [(rng.randint(3, max(3, g.n)), None)]
        if rng.random() < 0.5:
            listed = rng.sample(range(1, g.k + 1), rng.randint(1, g.k))
            cycles.append((rng.randint(3, max(3, g.n)), listed))
        found = list(forbidden_structures(g, rainbow, cycles))
        expect = _sweep_by_oracles(g, rainbow, cycles)
        got = [(w.kind, w.color, len(w.vertices)) for w in found]
        assert got == expect, (g.edge_colors(), cycles)
        assert all(validate_witness(g, w) for w in found)
        if found and found[0].kind == RAINBOW_TRIANGLE:
            assert found[0].vertices == rainbow_triangles_bruteforce(g)[0]
        seen.add(found[0].kind if found else None)
    assert seen == {RAINBOW_TRIANGLE, MONO_CYCLE, None}


def test_sweep_checks_the_whole_claim_before_it_scans():
    # a bad order or listed color fails whatever colors the host holds
    hosts = (complete_monochromatic(1, 1, 1), complete_monochromatic(2, 1, 1),
             complete_monochromatic(5, 3, 2))
    claims = ([(2, None)], [(5, None), (2, [])], [(5, [4])], [(5, [0])], [(5, None), (5, [1, 9])])
    for g in hosts:
        for cycles in claims:
            with pytest.raises(ValueError):
                next(forbidden_structures(g, True, cycles), None)


def test_mono_cycle_odd_length_in_bipartite_class_is_fast_no():
    # color 1 forms K_{32,32}; the parity cut has to kill this at the root
    n = 64
    flat = []
    for v in range(1, n):
        for u in range(v):
            flat.append(1 if (u < 32) != (v < 32) else 2)
    g = ColoredCompleteGraph(n, 2, flat)
    assert find_mono_cycle(g, 1, 9) is None
    w = find_mono_cycle(g, 1, 10)
    assert w is not None and validate_witness(g, w)


def _bipartite_coloring(rng, n: int, p: float) -> ColoredCompleteGraph:
    """Color 1 is a random subgraph of a random complete bipartite graph, color 2 the rest."""
    side = [rng.random() < 0.5 for _ in range(n)]
    flat = [1 if side[u] != side[v] and rng.random() < p else 2 for v in range(n) for u in range(v)]
    return ColoredCompleteGraph(n, 2, flat)


def test_odd_cycles_in_a_class_without_one_never_walk(monkeypatch):
    # a breadth-first search clears a class with no odd cycle for every odd
    # m: the extremal colorings' later colors, the two cliques' joining color
    # and random bipartite classes
    walks = []
    real = _PathEnds.closes
    monkeypatch.setattr(_PathEnds, "closes", lambda *a: walks.append(a) or real(*a))
    hosts = [(build_extremal_odd(2, 5)[0], range(2, 6)), (build_extremal_odd(4, 4)[0], range(2, 5))]
    hosts.append((build_ramsey_cycle_lower(3, 33)[0], [1]))
    rng = random.Random(31)
    hosts += [(_bipartite_coloring(rng, rng.randint(6, 40), rng.uniform(0.3, 1)), [1]) for _ in range(30)]
    for g, colors in hosts:
        for c in colors:
            for m in range(3, g.n + 1, 2):
                assert find_mono_cycle(g, c, m) is None
    assert walks == []
    # an even m still walks, and finds the C_4 of a complete bipartite class
    w = find_mono_cycle(hosts[0][0], 2, 4)
    assert w is not None and validate_witness(hosts[0][0], w)
    assert walks


def test_mono_cycle_matches_subset_dp_on_bipartite_and_random_classes():
    rng = random.Random(32)
    seen = set()
    for i in range(240):
        n = rng.randint(3, 11)
        g = _bipartite_coloring(rng, n, 0.8) if i % 2 else random_coloring(rng, n, 2)
        for c in (1, 2):
            masks = g.class_masks(c)
            expect = {m: cycle_exists_dp(masks, n, m) for m in range(3, 10)}
            assert detectors._has_odd_cycle(masks) == any(expect[m] for m in range(3, 10, 2))
            for m in range(3, 10):
                w = find_mono_cycle(g, c, m)
                assert (w is not None) == expect[m], (g.edge_colors(), c, m)
                assert w is None or (validate_witness(g, w) and len(w.vertices) == m)
                seen.add((m % 2, expect[m]))
    assert seen == {(0, False), (0, True), (1, False), (1, True)}


def test_mono_cycle_witness_is_canonical_and_deterministic():
    rng = random.Random(13)
    for _ in range(40):
        g = random_coloring(rng, rng.randint(4, 10), 2)
        a = find_mono_cycle(g, 1, 4)
        b = find_mono_cycle(g, 1, 4)
        assert a == b
        if a is not None:
            assert a.vertices == canonical_cycle(a.vertices)


# -- exact-length monochromatic paths ---------------------------------------------


def test_mono_path_matches_dfs_oracle():
    rng = random.Random(14)
    for _ in range(250):
        n = rng.randint(2, 11)
        k = rng.randint(1, 3)
        g = random_coloring(rng, n, k)
        c = rng.randint(1, k)
        p = rng.randint(1, n)
        w = find_mono_path(g, c, p)
        expect = path_exists_dfs(g.class_masks(c), n, p - 1)
        assert (w is not None) == expect
        if w is not None:
            assert w.kind == MONO_PATH and len(w.vertices) == p
            assert validate_witness(g, w)
            assert w.vertices == canonical_path(w.vertices)


def test_mono_path_trivial_orders():
    g = complete_monochromatic(3, 2, 2)
    w = find_mono_path(g, 1, 1)
    assert w is not None and w.vertices == (0,)
    with pytest.raises(ValueError):
        find_mono_path(g, 1, 0)
    # the palette is checked before any early answer
    for color, p in ((7, 1), (0, 1), (3, 4)):
        with pytest.raises(ValueError):
            find_mono_path(g, color, p)


def test_witnesses_are_the_lexicographically_first():
    # byte-stable output: each detector returns the least vertex sequence
    # (in canonical form) that the brute force finds, not just some witness
    rng = random.Random(22)
    found = fallbacks = 0
    for _ in range(300):
        n = rng.randint(3, 8)
        k = rng.randint(1, 3)
        g = random_coloring(rng, n, k)
        c = rng.randint(1, k)
        masks = g.class_masks(c)
        m = rng.randint(3, n)
        first = first_sequence_bruteforce(masks, n, m, closed=True)
        w = find_mono_cycle(g, c, m)
        assert (None if w is None else w.vertices) == first
        assert first is None or canonical_cycle(first) == first
        p = rng.randint(1, n)
        first = first_sequence_bruteforce(masks, n, p, closed=False)
        w = find_mono_path(g, c, p)
        assert (None if w is None else w.vertices) == first
        assert first is None or canonical_path(first) == first
        found += w is not None
        h = g.color_class(c)
        edges = rng.randint(1, n)
        if sum(h.degree(v) for v in range(n)) <= (edges - 1) * n:
            # below the Erdos-Gallai edge bound: the exact-search fallback
            fallbacks += 1
            first = first_sequence_bruteforce(masks, n, edges + 1, closed=False)
            w = erdos_gallai_path(h, edges, c)
            assert (None if w is None else w.vertices) == first
    assert found > 100 and fallbacks > 100


def test_first_path_is_one_walk_of_one_table(monkeypatch):
    # the walk that decides whether the path exists also returns it, and it
    # is the lexicographically first path, for any universe and targets: no
    # table is built per path vertex to recover it.  A one-edge path builds
    # no table at all
    built = []

    class Counted(_PathEnds):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(detectors, "_PathEnds", Counted)
    rng = random.Random(23)
    walked = 0
    for _ in range(300):
        n = rng.randint(2, 8)
        masks = random_bitgraph(rng, n, rng.uniform(0.3, 0.8)).masks
        x = rng.randrange(n)
        edges = rng.randint(1, n - 1)
        others = [w for w in range(n) if w != x and rng.random() < 0.85]
        universe = sum(1 << w for w in others)
        targets = universe & rng.randrange(1 << n)
        first = next(
            (
                [x, *rest]
                for rest in itertools.permutations(others, edges)
                if targets >> rest[-1] & 1
                and all(masks[a] >> b & 1 for a, b in zip((x, *rest), rest))
            ),
            None,
        )
        built.clear()
        assert _first_path(masks, x, edges, universe, targets) == first, (masks, x, edges)
        room = closure(masks, 1 << x, universe | 1 << x).bit_count() > edges
        assert len(built) == (1 if room and edges > 1 else 0)
        walked += first is not None and edges > 1
    assert walked > 30


def _sparse_two_coloring(n: int, p: float, seed: int) -> ColoredCompleteGraph:
    # each pair, in flat order, takes color 1 with probability p
    rng = random.Random(seed)
    return ColoredCompleteGraph(n, 2, [1 if rng.random() < p else 2 for _ in range(n * (n - 1) // 2)])


def test_long_witnesses_in_sparse_classes_are_pinned():
    # a path on all but one vertex and a cycle on all but one, each found
    # deep in the walk, where a wrong recovery would show
    g = _sparse_two_coloring(22, 0.2, 5)
    assert find_mono_path(g, 1, 21).vertices == (
        0, 4, 7, 11, 2, 12, 1, 5, 15, 21, 17, 20, 6, 13, 16, 19, 9, 8, 14, 3, 10)
    g = _sparse_two_coloring(24, 0.25, 3)
    assert find_mono_cycle(g, 1, 23).vertices == (
        0, 1, 9, 2, 3, 4, 7, 13, 20, 8, 15, 17, 5, 23, 12, 19, 22, 16, 6, 11, 10, 18, 21)


@pytest.mark.parametrize("ring, next_to_5", [((4, 1, 5, 2, 3), 2), ((1, 5, 3, 2, 4, 1), 3)])
def test_one_edge_paths_on_a_path_and_a_cycle_host(ring, next_to_5):
    # color 1 is a path or a cycle on 1..5 and vertex 0 is isolated: every
    # engine gives the lowest vertex with an edge and its lowest neighbor
    edges = set(zip(ring, ring[1:]))
    g = build(6, 2, {(u, v): 1 if (u, v) in edges or (v, u) in edges else 2
                     for u, v in itertools.combinations(range(6), 2)})
    expect = Witness(MONO_PATH, (1, 4), 1)
    assert find_mono_path(g, 1, 2) == expect
    assert erdos_gallai_path(g.color_class(1), 1, 1) == expect
    assert colored_path_split(g, 1, 2, 2, 6) == expect
    assert _first_path(g.class_masks(1), 0, 1, 0b111110, 0b111110) is None
    assert _first_path(g.class_masks(1), 5, 1, 0b011111, 0b001100) == [5, next_to_5]


# -- Dirac engine ----------------------------------------------------------------


def test_dirac_returns_hamilton_cycle_on_conditioned_graphs():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(3, 24)
        h = random_min_degree_graph(rng, n)
        w = dirac_hamiltonian(h)
        assert w.kind == HAMILTON_CYCLE
        assert len(w.vertices) == n
        assert validate_witness(h, w)


def test_dirac_rejects_low_degree():
    h = BitGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(DiracPreconditionFailed) as info:
        dirac_hamiltonian(h)
    assert info.value.vertex == 0
    with pytest.raises(ValueError):
        dirac_hamiltonian(BitGraph.from_edges(2, [(0, 1)]))


# -- edge-count path engine --------------------------------------------------------


def test_erdos_gallai_guarantee_and_oracle_agreement():
    rng = random.Random(16)
    guaranteed_hits = 0
    for _ in range(300):
        n = rng.randint(2, 14)
        h = random_bitgraph(rng, n, rng.uniform(0.1, 0.9))
        e = h.edge_count()
        if e == 0:
            continue
        kmax = (2 * e - 1) // n + 1
        k = rng.randint(1, max(1, kmax))
        w = erdos_gallai_path(h, k)
        feasible = path_exists_dfs(h.masks, n, k)
        if 2 * e > (k - 1) * n:
            assert w is not None, f"n={n} e={e} k={k}: guarantee failed"
            guaranteed_hits += 1
        if w is None:
            assert not feasible
        else:
            assert feasible
            assert len(w.vertices) == k + 1
            assert validate_witness(h, w)
    assert guaranteed_hits > 100


def test_erdos_gallai_without_guarantee_still_honest():
    # below the edge bound the engine may fall back to search but must not lie
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(3, 10)
        h = random_bitgraph(rng, n, 0.25)
        k = rng.randint(1, n - 1)
        w = erdos_gallai_path(h, k)
        assert (w is not None) == path_exists_dfs(h.masks, n, k)


def test_erdos_gallai_inherits_view_color():
    g = complete_monochromatic(5, 2, 2)
    w = erdos_gallai_path(g.color_class(2), 3, 2)
    assert w is not None and w.color == 2 and w.kind == MONO_PATH
    assert erdos_gallai_path(g.color_class(2), 3).color is None


# -- two-color path split ----------------------------------------------------------


def test_colored_path_split_on_complete_two_colorings():
    rng = random.Random(18)
    for _ in range(200):
        n = rng.randint(3, 12)
        g = random_coloring(rng, n, 2)
        a = rng.randint(1, n)
        b = rng.randint(max(1, 3 - a), n + 2 - a)  # a + b <= n + 2, a + b >= 3
        w = colored_path_split(g, 1, 2, a, b)
        assert w.kind == MONO_PATH
        assert w.color in (1, 2)
        assert len(w.vertices) == (a if w.color == 1 else b)
        assert validate_witness(g, w)


def test_colored_path_split_reports_failing_vertex():
    # palette of 3 where vertex 0 sees neither red nor blue
    g = ColoredCompleteGraph(4, 3, [3, 3, 1, 3, 1, 2])
    with pytest.raises(DegreePreconditionFailed) as info:
        colored_path_split(g, 1, 2, 3, 3)
    assert info.value.vertex == 0
    with pytest.raises(ValueError):
        colored_path_split(g, 1, 1, 2, 2)
    with pytest.raises(ValueError):
        colored_path_split(g, 1, 2, 1, 1)


# -- witness validation ------------------------------------------------------------


def test_validate_witness_rejects_forgeries():
    g = complete_monochromatic(5, 2, 1)
    ok = Witness(MONO_CYCLE, (0, 1, 2, 3), 1)
    assert validate_witness(g, ok)
    assert not validate_witness(g, Witness(MONO_CYCLE, (0, 1, 2, 3), 2))   # wrong color
    assert not validate_witness(g, Witness(MONO_CYCLE, (0, 1, 2), None))   # missing color
    assert not validate_witness(g, Witness(MONO_CYCLE, (0, 1, 1), 1))      # repeat
    assert not validate_witness(g, Witness(MONO_CYCLE, (0, 1, 9), 1))      # range
    assert not validate_witness(g, Witness(MONO_CYCLE, (0, 1), 1))         # too short
    assert not validate_witness(g, Witness(MONO_PATH, (), 1))              # empty
    assert validate_witness(g, Witness(MONO_PATH, (0,), 2))
    assert not validate_witness(g, Witness(MONO_PATH, (0,), 7))            # outside palette
    assert not validate_witness(g, Witness(MONO_PATH, (0,), 0))
    assert not validate_witness(g, Witness(MONO_PATH, (0,), None))
    assert not validate_witness(g, Witness("Nonsense", (0, 1, 2), 1))


def test_validate_witness_rainbow():
    g = ColoredCompleteGraph(3, 3, [1, 2, 3])
    assert validate_witness(g, Witness(RAINBOW_TRIANGLE, (0, 1, 2)))
    g2 = ColoredCompleteGraph(3, 3, [1, 2, 2])
    assert not validate_witness(g2, Witness(RAINBOW_TRIANGLE, (0, 1, 2)))
    assert not validate_witness(g, Witness(RAINBOW_TRIANGLE, (0, 1, 2), 7))  # color-free kind


def test_validate_witness_hamilton_needs_spanning_cycle():
    h = BitGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert validate_witness(h, Witness(HAMILTON_CYCLE, (0, 1, 2, 3)))
    assert not validate_witness(h, Witness(HAMILTON_CYCLE, (0, 1, 2, 3), 5))  # color-free kind
    assert not validate_witness(h, Witness(HAMILTON_CYCLE, (0, 1, 2)))
    assert not validate_witness(h, Witness(HAMILTON_CYCLE, (0, 2, 1, 3)))


def test_witness_json_round_trip():
    w = Witness(MONO_CYCLE, (2, 0, 1, 5), 3)
    d = w.to_json_dict()
    assert list(d.keys()) == ["kind", "color", "vertices"]
    assert Witness.from_json_dict(d) == w
