"""Search engine: completeness, determinism, budgets, certificates."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import sys
import time
import tracemalloc

import pytest

from gallai_lab import detectors, search
from gallai_lab.coloring import (
    MAX_VERTICES,
    ColoredCompleteGraph,
    bits,
    build,
    complete_monochromatic,
    relabel,
    serialize,
    substitute,
)
from gallai_lab.constructions import build_ramsey_cycle_lower, gallai_ramsey_formula, ramsey_formula
from gallai_lab.detectors import _PathEnds, find_mono_cycle, find_rainbow_triangle
from gallai_lab.errors import BadParameters, OverLimit
from gallai_lab.search import (
    BUDGET_EXCEEDED,
    EXHAUSTED,
    FOUND,
    AvoidanceProblem,
    SearchReport,
    SearchStats,
    _ClassStore,
    _refine,
    enumerate_avoiding,
    exists_avoiding,
    reports_equivalent,
    search_gallai_ramsey,
    search_ramsey,
    verify_certificate,
)

from oracles import (
    _is_min_image,
    automorphism_count,
    canonical_key,
    cycle_through_edge_bruteforce,
    is_group_min_image,
    palette_permutations,
    random_coloring,
    refine_with_byte_signatures,
)


# -- enumeration completeness -------------------------------------------------------


def _orbit_sum(colorings, blocks) -> int:
    # orbits under vertex relabeling times renaming inside the blocks
    group = math.prod(math.factorial(len(b)) for b in blocks)
    total = 0
    for g in colorings:
        total += math.factorial(g.n) * group // automorphism_count(g, blocks)
    return total


def test_enumeration_covers_every_labeled_coloring():
    # a forbidden length above n constrains nothing, so the representatives
    # must tile the full k^C(n,2) space by orbit size; colors of equal
    # forbidden length are renamed freely, the others never
    cases = [
        (3, 2, (4, 4), [(1, 2)]),
        (4, 2, (5, 5), [(1, 2)]),
        (5, 2, (6, 6), [(1, 2)]),
        (4, 3, (5, 5, 5), [(1, 2, 3)]),
        (6, 2, (7, 7), [(1, 2)]),
        (4, 2, (5, 6), []),
        (4, 3, (5, 6, 5), [(1, 3)]),
    ]
    for n, k, forbidden, blocks in cases:
        reps = enumerate_avoiding(AvoidanceProblem(n, k, forbidden))
        assert _orbit_sum(reps, blocks) == k ** (n * (n - 1) // 2)
        words = {g.edge_colors() for g in reps}
        assert len(words) == len(reps), "duplicate canonical representative"


def _matrix(g: ColoredCompleteGraph) -> list[list[int]]:
    mat = [[0] * g.n for _ in range(g.n)]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            mat[u][v] = mat[v][u] = g.color_of(u, v)
    return mat


def test_enumeration_keeps_one_coloring_per_class():
    # no two representatives share the oracle's minimal word under vertex
    # relabeling and renaming inside the block, and together they tile the
    # space
    for n, k in [(4, 2), (5, 2), (4, 3)]:
        blocks = [tuple(range(1, k + 1))]
        reps = enumerate_avoiding(AvoidanceProblem.uniform(n, k, n + 1))
        assert _orbit_sum(reps, blocks) == k ** (n * (n - 1) // 2)
        keys = {canonical_key(_matrix(g), g.n, blocks) for g in reps}
        assert len(keys) == len(reps), "isomorphic duplicates"


def _renamed_masks(masks, tau):
    # per-color rows with color c renamed tau.get(c, c)
    out = list(masks)
    for c, d in tau.items():
        out[d] = masks[c]
    return out


def _vertex_class_count(reps_masks, blocks) -> int:
    # the classes under vertex relabeling alone: each representative's
    # renamings, counted by a store with no blocks
    store = _ClassStore()
    count = 0
    for masks, ell in reps_masks:
        for tau in palette_permutations(blocks):
            renamed = _renamed_masks(masks, tau)
            count += store.add(renamed, ell, _sizes(renamed))
    return count


def test_class_counts_of_unconstrained_two_colorings():
    # a forbidden length above n constrains nothing: the classes are the
    # graphs on n vertices up to complement, OEIS A007869, and the graphs,
    # OEIS A000088, once the renamings are counted apart
    reps = [
        enumerate_avoiding(AvoidanceProblem.uniform(n, 2, max(3, n + 1))) for n in range(1, 8)
    ]
    assert [len(r) for r in reps] == [1, 1, 2, 6, 18, 78, 522]
    counts = [_vertex_class_count([(_masks(g), g.n) for g in r], [(1, 2)]) for r in reps]
    assert counts == [1, 2, 4, 11, 34, 156, 1044]


def test_class_counts_of_rainbow_free_c5_three_colorings():
    # the level counts of the gr_3(K_3 : C_5) = 17 exhaustion, up to vertex
    # relabeling and renaming, and up to vertex relabeling alone
    reps = [
        enumerate_avoiding(AvoidanceProblem.uniform(n, 3, 5, rainbow=True))
        for n in range(2, 9)
    ]
    assert [len(r) for r in reps] == [1, 2, 8, 23, 70, 150, 254]
    counts = [_vertex_class_count([(_masks(g), g.n) for g in r], [(1, 2, 3)]) for r in reps]
    assert counts == [3, 9, 39, 132, 405, 891, 1497]


def _colors_of(masks, ell: int) -> list[list[int]]:
    # the color matrix on 0..ell-1 of per-color adjacency rows (index 0 unused)
    colors = [[0] * ell for _ in range(ell)]
    for c, rows in enumerate(masks[1:], 1):
        for u in range(ell):
            for w in bits(rows[u]):
                colors[u][w] = c
    return colors


def test_class_store_keeps_exactly_the_min_images(monkeypatch):
    # the search visits each level in word order, so the first member of a
    # class the store sees is its min-image: at every level the store must
    # keep exactly the colorings that no vertex relabeling and renaming
    # inside the store's blocks make smaller
    add = _ClassStore.add
    calls = []

    def checked_add(self, masks, ell, sizes):
        assert list(sizes) == _sizes(masks)
        kept = add(self, masks, ell, sizes)
        colors = _colors_of(masks, ell)
        assert kept == is_group_min_image(colors, ell, self.blocks), colors
        calls.append((ell, kept, _is_min_image(colors, ell)))
        return kept

    monkeypatch.setattr(_ClassStore, "add", checked_add)
    for n in range(2, 12):
        exists_avoiding(AvoidanceProblem(n, 2, (5, 6)))
    for n in range(2, 13):
        exists_avoiding(AvoidanceProblem(n, 2, (7, 7)))
    for n in range(2, 9):
        exists_avoiding(AvoidanceProblem.uniform(n, 3, 5, rainbow=True))
    for n in range(2, 8):
        enumerate_avoiding(AvoidanceProblem(n, 2, (6, 6)))
    for n in range(2, 11):
        enumerate_avoiding(AvoidanceProblem.uniform(n, 3, 3, rainbow=True))
    assert {ell for ell, _, _ in calls} == set(range(2, 12))
    assert {kept for _, kept, _ in calls} == {True, False}
    # vertex min-images that a renaming of colors makes smaller
    assert any(vertex_min and not kept for _, kept, vertex_min in calls)


def _shuffled(rng, g: ColoredCompleteGraph) -> ColoredCompleteGraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return relabel(g, perm)


def _circulant(n: int, color_of_distance: dict[int, int], k: int = 2) -> ColoredCompleteGraph:
    return build(n, k, {
        (u, v): color_of_distance[min(v - u, n - v + u)]
        for u in range(n) for v in range(u + 1, n)
    })


def _cycle_union(lengths) -> ColoredCompleteGraph:
    # color 1 is a disjoint union of cycles, color 2 the rest
    n = sum(lengths)
    colors = {(u, v): 2 for u in range(n) for v in range(u + 1, n)}
    start = 0
    for m in lengths:
        for i in range(m):
            u, v = start + i, start + (i + 1) % m
            colors[min(u, v), max(u, v)] = 1
        start += m
    return build(n, 2, colors)


def _masks(g: ColoredCompleteGraph) -> list[list[int]]:
    # per-color adjacency rows as the search keeps them (index 0 unused)
    return [[0] * g.n] + [g.class_masks(c) for c in range(1, g.k + 1)]


def _sizes(masks) -> list[int]:
    # the edges of each color, as the search counts them (index 0 unused)
    return [sum(map(int.bit_count, rows)) // 2 for rows in masks]


def _assert_store_agrees_with_oracle(colorings) -> None:
    # a coloring opens a new class in the store exactly when its minimal
    # word has not been seen before
    store = _ClassStore()
    keys = set()
    for g in colorings:
        key = canonical_key(_matrix(g), g.n)
        assert store.add(_masks(g), g.n, _sizes(_masks(g))) == (key not in keys)
        keys.add(key)


def test_class_store_agrees_with_oracle_key_on_random_colorings():
    rng = random.Random(2024)
    for n in range(2, 10):
        for k in (2, 3):
            pool = [random_coloring(rng, n, k) for _ in range(6)]
            pool += [_shuffled(rng, g) for g in pool for _ in range(2)]
            rng.shuffle(pool)
            _assert_store_agrees_with_oracle(pool)


def test_class_store_agrees_with_oracle_key_on_symmetric_colorings():
    # regular colorings leave refinement nothing to split, so only
    # individualization tells the classes apart; color 1 at distances
    # {1, 3, 5} of Z_10 is K_{5,5}, with 28,800 automorphisms
    rng = random.Random(7)
    pool = []
    for ones in ({1, 3, 5}, {1, 2, 5}, {2, 4, 5}, {3, 4, 5}):
        g = _circulant(10, {d: 1 if d in ones else 2 for d in range(1, 6)})
        pool += [g, _shuffled(rng, g), _shuffled(rng, g)]
    # 2-regular color classes on nine vertices: one refinement cell that is
    # not one orbit unless the cycles all have the same length
    for lengths in ((9,), (3, 6), (4, 5), (3, 3, 3)):
        g = _cycle_union(lengths)
        pool += [g] + [_shuffled(rng, g) for _ in range(3)]
    rng.shuffle(pool)
    _assert_store_agrees_with_oracle(pool)


# colorings whose color-degree refinement leaves cells that are no twin
# modules: one cell whose inside colors differ (a perfect matching of K_4
# against the rest, a 5-cycle against its complement), or two cells, each
# one color inside, that see each other in two colors (each vertex of a
# 2-vertex cell joined in color 1 to its own two of a 4-vertex cell)
_NON_TWIN_PARTS = (
    build(4, 2, {(0, 1): 1, (2, 3): 1, (0, 2): 2, (0, 3): 2, (1, 2): 2, (1, 3): 2}),
    _circulant(5, {1: 1, 2: 2}),
    build(6, 2, {(u, v): 1 if (u, v) in {(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)} else 2
                 for u in range(6) for v in range(u + 1, 6)}),
)


def _blow_up(rng, parts) -> ColoredCompleteGraph:
    # parts substituted into a random base on 2 or 3 colors
    k = rng.choice((2, 3))
    return substitute(random_coloring(rng, len(parts), k), parts)


def _twin_rule_pool(rng) -> list[ColoredCompleteGraph]:
    # blow-ups into monochromatic parts, whose cells are twin modules unless
    # refinement merges parts, and blow-ups that keep a part whose cell
    # equitable refinement cannot tell from a twin module
    pool = []
    for _ in range(12):
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        pool.append(_blow_up(rng, [complete_monochromatic(s, 3, rng.randint(1, 3)) for s in sizes]))
    for part in _NON_TWIN_PARTS:
        pool.append(part)
        for _ in range(3):
            pool.append(_blow_up(rng, [part, complete_monochromatic(rng.randint(1, 3), 2, 1)]))
    return pool


def test_class_store_twin_module_rule_agrees_with_oracle_key():
    # the twin-module rule decides a lookup by pairing cells in bit order;
    # shuffled copies of each coloring must still be found, and only them
    rng = random.Random(53)
    pool = _twin_rule_pool(rng)
    pool += [_shuffled(rng, g) for g in pool for _ in range(3)]
    rng.shuffle(pool)
    _assert_store_agrees_with_oracle(pool)


def _every_permutation_keeps(mat: list[list[int]], cell: list[int]) -> bool:
    # the cell is a twin module: its vertices see each other, and each
    # vertex outside, in one color
    outside = [w for w in range(len(mat)) if w not in cell]
    return (len({mat[u][w] for u, w in itertools.combinations(cell, 2)}) <= 1
            and all(len({mat[u][w] for u in cell}) == 1 for w in outside))


def test_twin_module_partitions_are_decided_without_individualizing(monkeypatch):
    # when every cell of the root partition is a twin module, a duplicate is
    # found with the root refinement alone
    calls = []
    refine = search._refine
    monkeypatch.setattr(search, "_refine", lambda *a: calls.append(a) or refine(*a))
    rng = random.Random(59)
    decided = 0
    for g in _twin_rule_pool(rng):
        every = (1 << g.n) - 1
        cells, _ = refine(_masks(g)[1:-1], [every], [every])
        if not all(_every_permutation_keeps(_matrix(g), list(bits(cell))) for cell in cells):
            continue
        store = _ClassStore()
        assert store.add(_masks(g), g.n, _sizes(_masks(g)))
        calls.clear()
        shuffled = _masks(_shuffled(rng, g))
        assert not store.add(shuffled, g.n, _sizes(shuffled))
        assert len(calls) == 1
        decided += 1
    assert decided >= 8


def _identity_word(mat: list[list[int]], n: int) -> tuple[int, ...]:
    return tuple(mat[i][r] for r in range(n) for i in range(r))


def _blocks(rng, n: int, k: int) -> ColoredCompleteGraph:
    # the color of an edge depends only on the blocks of its ends, so every
    # permutation inside a block is an automorphism
    owner = sorted(rng.randrange(rng.randint(1, n)) for _ in range(n))
    pair_color = {}
    return build(n, k, {
        (u, v): pair_color.setdefault((owner[u], owner[v]), rng.randint(1, k))
        for u in range(n) for v in range(u + 1, n)
    })


def _palette_edge_pool(rng, k: int) -> list[ColoredCompleteGraph]:
    pool = []
    for n in range(2, 8):
        pool += [random_coloring(rng, n, k), _blocks(rng, n, k)]
        pool.append(_circulant(n, {d: rng.randint(1, k) for d in range(1, n // 2 + 1)}, k))
    return pool


def test_refinement_ignores_vertex_labels_at_the_palette_edges():
    # a relabeled coloring refines to the same trace and to the relabeled
    # cells, from the whole vertex set and after one vertex is individualized;
    # with k = 1 there is no color to split on
    rng = random.Random(41)
    for k in (1, 2, 3, 4):
        for g in _palette_edge_pool(rng, k):
            every = (1 << g.n) - 1
            x = rng.randrange(g.n)
            whole = _refine(_masks(g)[1:-1], [every], [every])
            single = _refine(_masks(g)[1:-1], [1 << x, every ^ 1 << x], [1 << x])
            if k == 1:
                assert whole[0] == [every]
            for _ in range(3):
                perm = list(range(g.n))
                rng.shuffle(perm)
                rows = _masks(relabel(g, perm))[1:-1]
                y = perm[x]
                for (cells, trace), got in (
                    (whole, _refine(rows, [every], [every])),
                    (single, _refine(rows, [1 << y, every ^ 1 << y], [1 << y])),
                ):
                    moved = [sum(1 << perm[v] for v in bits(cell)) for cell in cells]
                    assert got == (moved, trace)


def _packed(sig):
    # a byte-string signature read as 7-bit slots, the first byte highest; a
    # lone target's color is an int already
    if type(sig) is int:
        return sig
    out = 0
    for count in sig:
        out = out << 7 | count
    return out


def test_refinement_matches_the_byte_signature_reference():
    # the packed-int signatures split cells into the same groups, in the same
    # order, as byte strings do: equal cells, and a trace that is the
    # reference's with every signature packed, entry for entry.  A round's
    # signatures all have the same number of slots, so packing is one-to-one
    # on them and keeps their order.  The 64-vertex coloring joins vertex 0
    # to every other vertex in color 1, so one count is 63 and fills six of
    # its slot's seven bits
    rng = random.Random(61)
    pool = []
    for k in (1, 2, 3, 4):
        pool += _palette_edge_pool(rng, k)
        pool += [random_coloring(rng, n, k) for n in (8, 12, 16)]
    wide = random_coloring(rng, 64, 3)
    pool.append(build(64, 3, {
        (u, v): 1 if u == 0 else wide.color_of(u, v) for u in range(64) for v in range(u + 1, 64)
    }))
    full_count = False
    for g in pool:
        rows = _masks(g)[1:-1]
        every = (1 << g.n) - 1
        x = rng.randrange(g.n)
        # a random ordered partition, every cell a target
        owner = [rng.randrange(3) for _ in range(g.n)]
        parts = [p for p in (sum(1 << v for v in range(g.n) if owner[v] == i) for i in range(3)) if p]
        for cells, targets in (([every], [every]), ([1 << x, every ^ 1 << x], [1 << x]),
                               (parts, parts)):
            got_cells, got = _refine(rows, cells, targets)
            want_cells, want = refine_with_byte_signatures(rows, cells, targets)
            assert got_cells == want_cells
            assert got == [(i, size, _packed(sig)) for i, size, sig in want]
            full_count |= any(type(sig) is bytes and 63 in sig for _, _, sig in want)
    assert full_count


def test_class_store_agrees_with_oracle_key_at_the_palette_edges():
    rng = random.Random(43)
    for k in (1, 4):
        pool = _palette_edge_pool(rng, k)
        pool += [_shuffled(rng, g) for g in pool]
        rng.shuffle(pool)
        _assert_store_agrees_with_oracle(pool)


def _assert_group_store_agrees_with_oracle(colorings, blocks) -> None:
    # a coloring opens a new class exactly when its minimal word under
    # relabeling and renaming inside the blocks has not been seen before
    store = _ClassStore(blocks)
    keys = set()
    for g in colorings:
        key = canonical_key(_matrix(g), g.n, blocks)
        assert store.add(_masks(g), g.n, _sizes(_masks(g))) == (key not in keys), g.edge_colors()
        keys.add(key)


def _renamed_coloring(g: ColoredCompleteGraph, tau) -> ColoredCompleteGraph:
    return ColoredCompleteGraph(g.n, g.k, [tau.get(c, c) for c in g.edge_colors()])


def _tied_pool(k: int) -> list[ColoredCompleteGraph]:
    # colorings whose classes tie in size: a triangle and a star on K_4 (not
    # isomorphic as graphs), a 5-cycle and its complement (isomorphic), two
    # perfect matchings of K_4, and colorings with empty colors
    pool = [
        build(4, k, {(0, 1): 1, (0, 2): 1, (1, 2): 1, (0, 3): 2, (1, 3): 2, (2, 3): 2}),
        _circulant(5, {1: 1, 2: 2}, k),
        build(4, k, {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): k, (1, 2): k}),
        complete_monochromatic(5, k, 2),
        _circulant(6, {1: 1, 2: 2, 3: k}, k),
    ]
    return pool


def test_class_store_with_blocks_agrees_with_group_oracle():
    rng = random.Random(47)
    for k, block_sets in (
        (2, [[(1, 2)]]),
        (3, [[(1, 2, 3)], [(1, 3)]]),
        (4, [[(1, 2, 3, 4)], [(1, 2), (3, 4)]]),
    ):
        for blocks in block_sets:
            pool = _palette_edge_pool(rng, k) + _tied_pool(k)
            renamings = palette_permutations(blocks)
            pool += [_renamed_coloring(_shuffled(rng, g), rng.choice(renamings)) for g in pool]
            pool += [_renamed_coloring(g, rng.choice(renamings)) for g in pool]
            rng.shuffle(pool)
            _assert_group_store_agrees_with_oracle(pool, blocks)


def test_class_store_images_cover_tied_and_empty_colors():
    # a store entry per distinct renaming that orders the block by class
    # size: ties give one image per order, empty colors are all alike
    def images(g, blocks):
        return len(list(_ClassStore(blocks)._images(_masks(g), _sizes(_masks(g)))))

    triangle_and_star = _tied_pool(3)[0]
    assert images(triangle_and_star, [(1, 2, 3)]) == 2
    assert images(triangle_and_star, [(1, 2)]) == 2
    assert images(triangle_and_star, [(2, 3)]) == 1
    assert images(complete_monochromatic(5, 4, 2), [(1, 2, 3, 4)]) == 1
    assert images(_circulant(6, {1: 1, 2: 2, 3: 3}, 3), [(1, 2, 3)]) == 2
    matchings = _tied_pool(3)[2]
    assert images(matchings, [(1, 2, 3)]) == 6
    assert images(_tied_pool(4)[2], [(1, 2), (3, 4)]) == 2


def test_class_store_builds_only_the_first_image_of_a_rejected_coloring(monkeypatch):
    # a lookup refines the first palette image and draws no other; an accept
    # still stores every image.  The colorings' root cells are twin modules,
    # so the lookup itself never individualizes
    calls = []
    drawn = []
    refine = search._refine
    images = _ClassStore._images

    def counted_images(self, masks, sizes):
        for rows in images(self, masks, sizes):
            drawn.append(rows)
            yield rows

    monkeypatch.setattr(search, "_refine", lambda *a: calls.append(a) or refine(*a))
    monkeypatch.setattr(_ClassStore, "_images", counted_images)
    rng = random.Random(67)
    # five edges of each color on K_6, told apart vertex by vertex by the
    # root refinement: all three colors tie
    asymmetric = ColoredCompleteGraph(6, 3, [3, 3, 1, 3, 2, 2, 1, 2, 2, 3, 1, 1, 3, 2, 1])
    for g, count in ((_tied_pool(3)[0], 2), (asymmetric, 6)):
        every = (1 << g.n) - 1
        cells, _ = refine(_masks(g)[1:-1], [every], [every])
        assert all(_every_permutation_keeps(_matrix(g), list(bits(cell))) for cell in cells)
        store = _ClassStore([(1, 2, 3)])
        drawn.clear()
        assert store.add(_masks(g), g.n, _sizes(_masks(g)))
        assert len(drawn) == count
        assert sum(map(len, store.buckets.values())) == count
        renamed = _renamed_coloring(_shuffled(rng, g), {1: 2, 2: 3, 3: 1})
        calls.clear()
        drawn.clear()
        assert not store.add(_masks(renamed), g.n, _sizes(_masks(renamed)))
        assert (len(calls), len(drawn)) == (1, 1)


def test_min_image_agrees_with_oracle_key():
    # a coloring is a min-image exactly when its own word is the minimal one;
    # random colorings are rarely min-images, so each pool also holds the
    # coloring whose word is the oracle's minimum
    rng = random.Random(77)
    base = [complete_monochromatic(n, 1, 1) for n in range(1, 9)]
    for n in range(2, 9):
        for k in (2, 3):
            base += [random_coloring(rng, n, k) for _ in range(4)]
            base += [_blocks(rng, n, k) for _ in range(6)]
            base += [
                _circulant(n, {d: rng.randint(1, k) for d in range(1, n // 2 + 1)}, k)
                for _ in range(3)
            ]
    verdicts = set()
    for g in base:
        # the minimal word is the same for every relabeling of g
        key = canonical_key(_matrix(g), g.n)
        minimal = ColoredCompleteGraph(g.n, g.k, list(key))
        for h in (g, _shuffled(rng, g), minimal, _shuffled(rng, minimal)):
            mat = _matrix(h)
            expected = key == _identity_word(mat, h.n)
            assert _is_min_image(mat, h.n) == expected, h.edge_colors()
            verdicts.add(expected)
    assert verdicts == {True, False}


class _CountingRow(list):
    reads = 0

    def __getitem__(self, i):
        _CountingRow.reads += 1
        return list.__getitem__(self, i)


def test_min_image_prunes_by_the_automorphisms_it_finds():
    # in one color every relabeling of K_n ties, so without pruning the test
    # walks all n! of them; with it the color reads stay below n^3
    for n in (8, 12, 16):
        mat = _matrix(complete_monochromatic(n, 1, 1))
        _CountingRow.reads = 0
        assert _is_min_image([_CountingRow(row) for row in mat], n)
        assert _CountingRow.reads < n**3, (n, _CountingRow.reads)


def test_enumeration_matches_bruteforce_filter_with_rainbow():
    # level-by-level filtering must agree with filtering all labelings at once
    n, k, m = 4, 3, 3
    reps = enumerate_avoiding(AvoidanceProblem.uniform(n, k, m, rainbow=True))
    expected = 0
    for flat in itertools.product(range(1, k + 1), repeat=n * (n - 1) // 2):
        g = ColoredCompleteGraph(n, k, list(flat))
        if find_rainbow_triangle(g) is not None:
            continue
        if any(find_mono_cycle(g, c, m) is not None for c in range(1, k + 1)):
            continue
        expected += 1
    assert _orbit_sum(reps, [(1, 2, 3)]) == expected
    for g in reps:
        assert find_rainbow_triangle(g) is None
        for c in range(1, k + 1):
            assert find_mono_cycle(g, c, m) is None


def _first_avoiding_word(p: AvoidanceProblem):
    # the color words in increasing order, each checked with the detectors
    for flat in itertools.product(range(1, p.k + 1), repeat=p.n * (p.n - 1) // 2):
        g = ColoredCompleteGraph(p.n, p.k, list(flat))
        if p.rainbow_triangle_forbidden and find_rainbow_triangle(g) is not None:
            continue
        if any(find_mono_cycle(g, c, m) is not None for c, m in enumerate(p.forbidden, 1)):
            continue
        return flat
    return None


def test_found_coloring_is_the_first_avoiding_word():
    # the search's word order is the ColoredCompleteGraph pair order, so the
    # coloring it finds must be the least avoiding word, whatever it dedups by
    cases = [
        (1, (3,), False), (1, (4,), False), (2, (3, 3), False), (2, (4, 4), False), (2, (3, 4), False), (2, (4, 5), False),
        (2, (5, 5), False), (3, (3, 3, 3), False), (3, (3, 3, 3), True),
        (3, (4, 4, 4), True), (3, (3, 4, 3), False), (3, (3, 3, 4), True),
    ]
    statuses = set()
    for k, forbidden, rainbow in cases:
        for n in range(1, 6):
            p = AvoidanceProblem(n, k, forbidden, rainbow)
            out = exists_avoiding(p)
            statuses.add(out.status)
            found = out.coloring.edge_colors() if out.coloring is not None else None
            assert found == _first_avoiding_word(p), p
    assert statuses == {FOUND, EXHAUSTED}


def test_exists_avoiding_mono_triangles():
    # two-color triangle avoidance dies exactly at six vertices
    out5 = exists_avoiding(AvoidanceProblem.uniform(5, 2, 3))
    assert out5.status == FOUND
    g = out5.coloring
    assert find_mono_cycle(g, 1, 3) is None and find_mono_cycle(g, 2, 3) is None
    out6 = exists_avoiding(AvoidanceProblem.uniform(6, 2, 3))
    assert out6.status == EXHAUSTED and out6.coloring is None


def test_exhaustion_is_monotone_in_order():
    # once no avoider exists, adding vertices cannot revive one
    for n in (6, 7, 8):
        out = exists_avoiding(AvoidanceProblem.uniform(n, 2, 3))
        assert out.status == EXHAUSTED
    for n in (7, 8, 9):
        out = exists_avoiding(AvoidanceProblem(n, 2, (4, 5)))
        assert out.status == EXHAUSTED


def test_exists_avoiding_mixed_lengths():
    # C_4 in color 1 / C_5 in color 2: threshold is 7
    assert exists_avoiding(AvoidanceProblem(6, 2, (4, 5))).status == FOUND
    assert exists_avoiding(AvoidanceProblem(7, 2, (4, 5))).status == EXHAUSTED


def test_found_colorings_are_always_clean():
    rng = random.Random(30)
    for _ in range(20):
        n = rng.randint(2, 6)
        k = rng.randint(1, 3)
        m = rng.randint(3, 6)
        rainbow = k >= 3
        out = exists_avoiding(AvoidanceProblem.uniform(n, k, m, rainbow=rainbow))
        if out.status != FOUND:
            continue
        g = out.coloring
        if rainbow:
            assert find_rainbow_triangle(g) is None
        for c in range(1, k + 1):
            assert find_mono_cycle(g, c, m) is None


# -- budgets and order caps ---------------------------------------------------------


def test_budget_exceeded_is_reported_not_mistaken_for_exhaustion():
    out = exists_avoiding(AvoidanceProblem.uniform(6, 2, 3), budget=3)
    assert out.status == BUDGET_EXCEEDED
    assert out.coloring is None
    assert out.stats.nodes <= 3


def test_budget_is_one_cap_per_order():
    # R(C3,C3) at n=6 exhausts in 9 nodes.  A node of order l is l * k
    # steps, here 2 * l, and m = 3 needs no walk: 60 steps in all.  The last
    # node, of order 2, does not fit in 59, and a run never passes its cap
    p = AvoidanceProblem.uniform(6, 2, 3)
    out = exists_avoiding(p, budget=60)
    assert (out.status, out.stats.nodes, out.stats.steps) == (EXHAUSTED, 9, 60)
    out = exists_avoiding(p, budget=59)
    assert (out.status, out.stats.nodes, out.stats.steps) == (BUDGET_EXCEEDED, 8, 56)
    problems = [
        AvoidanceProblem.uniform(5, 2, 3),
        AvoidanceProblem(9, 2, (5, 5)),
        AvoidanceProblem.uniform(5, 3, 3, rainbow=True),
        AvoidanceProblem.uniform(6, 3, 4, rainbow=True),
    ]
    for p in problems:
        full = exists_avoiding(p)
        counts = (full.stats.nodes, full.stats.canonical, full.stats.rejected, full.stats.steps)
        exact = exists_avoiding(p, budget=full.stats.steps)
        assert (exact.status, exact.coloring) == (full.status, full.coloring)
        assert (exact.stats.nodes, exact.stats.canonical, exact.stats.rejected,
                exact.stats.steps) == counts
        short = exists_avoiding(p, budget=full.stats.steps - 1)
        assert short.status == BUDGET_EXCEEDED
        assert short.stats.steps <= full.stats.steps - 1
    with pytest.raises(BadParameters):
        exists_avoiding(AvoidanceProblem.uniform(1, 2, 3), budget=0)


def test_per_order_counts_with_and_without_renamings():
    # status and nodes/canonical/rejected pin the search itself; colors of
    # different forbidden lengths are never renamed, equal ones always
    cases = [
        (AvoidanceProblem(9, 2, (5, 6)), (FOUND, 101, 63, 38)),
        (AvoidanceProblem(10, 2, (5, 6)), (FOUND, 102, 64, 38)),
        (AvoidanceProblem(7, 2, (4, 5)), (EXHAUSTED, 38, 26, 12)),
        (AvoidanceProblem.uniform(7, 3, 4, rainbow=True), (EXHAUSTED, 48, 15, 33)),
    ]
    for p, expected in cases:
        out = exists_avoiding(p)
        st = out.stats
        assert (out.status, st.nodes, st.canonical, st.rejected) == expected, p


def _digest(g: ColoredCompleteGraph) -> str:
    # the first 16 hex digits of the sha256 of the serialized text
    return hashlib.sha256(serialize(g).encode()).hexdigest()[:16]


def _orders_until_exhausted(k, forbidden, rainbow, digests=None):
    # with ``digests``, each found coloring's serialized text is pinned too
    rows = []
    for n in itertools.count(1):
        out = exists_avoiding(AvoidanceProblem(n, k, forbidden, rainbow))
        st = out.stats
        rows.append((out.status, st.nodes, st.canonical, st.rejected))
        if out.status != FOUND:
            return rows
        if digests is not None:
            digests.append(_digest(out.coloring))


def test_per_order_counts_of_the_benchmark_searches():
    # status and nodes/canonical/rejected at every order, grown from n = 1 as
    # the benchmark's threshold workloads grow them
    small = [(FOUND, 1, 1, 0), (FOUND, 1, 1, 0), (FOUND, 2, 2, 0), (FOUND, 3, 3, 0),
             (FOUND, 4, 4, 0), (FOUND, 5, 5, 0)]
    problems = {"c5c6": (2, (5, 6), False), "c6c6": (2, (6, 6), False),
                "gallai-k3": (3, (3, 3, 3), True)}
    found = {name: [] for name in problems}
    rows = {name: _orders_until_exhausted(*p, found[name]) for name, p in problems.items()}
    assert rows["c5c6"] == small + [
        (FOUND, 21, 16, 5), (FOUND, 100, 62, 38), (FOUND, 101, 63, 38),
        (FOUND, 102, 64, 38), (EXHAUSTED, 263, 114, 149),
    ]
    assert rows["c6c6"] == small + [(FOUND, 6, 6, 0), (EXHAUSTED, 229, 84, 145)]
    assert rows["gallai-k3"] == small + [
        (FOUND, 6, 6, 0), (FOUND, 7, 7, 0), (FOUND, 9, 9, 0), (FOUND, 18, 16, 2),
        (EXHAUSTED, 94, 39, 55),
    ]
    # one search up to order 64 completes the same first coloring at each
    # order, and exhausts with the exhausting order's counts
    for name, (k, forbidden, rainbow) in problems.items():
        s = search._Search(AvoidanceProblem(MAX_VERTICES, k, forbidden, rainbow)).run()
        assert not s.exceeded
        words = [_digest(ColoredCompleteGraph(n, k, w)) for n, w in enumerate(s.words, 1)]
        assert words == found[name]
        assert (EXHAUSTED, s.nodes, s.canonical, s.rejected) == rows[name][-1]
    # the found colorings, order by order: a faster search must find the same ones
    assert found == {
        "c5c6": ["f251ddc12234e0da", "e3c71e9c5df45b2d", "b61da295e076bd32", "b15a08698799b937",
                 "bbdf969b6702137d", "4255a486812ac29c", "32273659b60229b7", "b985fa2d685a1222",
                 "055b47aa6754f28b", "8b742955f5e90c5d"],
        "c6c6": ["f251ddc12234e0da", "e3c71e9c5df45b2d", "b61da295e076bd32", "b15a08698799b937",
                 "cce597ba6c4ba03c", "ab82da37acd59741", "c52e08c39bde987c"],
        "gallai-k3": ["b7ea1f3c2d566646", "e033ae9f95c95a12", "2f6f4f121884f591",
                      "a99feba2a3a45170", "30118d8228600e83", "103c04eddc577c32",
                      "f70b59ce49565ef3", "4f0be2a19978e200", "5f2b0b7865ed54f3",
                      "4f60123f0b1466ae"],
    }


def _fresh_outcome(p: AvoidanceProblem, budget):
    # what exists_avoiding answers from a search started afresh
    s = search._Search(p, budget).run()
    if len(s.words) == p.n:
        status, word = FOUND, tuple(s.words[-1])
    else:
        status, word = (BUDGET_EXCEEDED if s.exceeded else EXHAUSTED), None
    return status, word, s.nodes, s.canonical, s.rejected, s.meter.steps


def _outcome(out):
    word = out.coloring.edge_colors() if out.coloring is not None else None
    st = out.stats
    return out.status, word, st.nodes, st.canonical, st.rejected, st.steps


def test_resumed_searches_answer_as_fresh_ones(monkeypatch):
    # exists_avoiding goes on from the search that found the order below;
    # every answer must be the one a fresh search gives.  Orders go up by
    # one, skip, repeat and go down; a budget is none, below the steps the
    # suspended search has taken (it cannot resume) or exactly those steps
    resumed = []
    resume = search._Search.resume
    monkeypatch.setattr(search._Search, "resume",
                        lambda s, p, b: resumed.append((s.p.n, p.n, b)) or resume(s, p, b))
    rules = [  # palette, forbidden cycle orders, rainbow rule, highest order
        (2, (5, 6), False, 11), (2, (6, 6), False, 8), (2, (4, 5), False, 7),
        (2, (7, 7), False, 13), (3, (3, 3, 3), True, 11), (3, (3, 4, 5), True, 12),
    ]
    rng = random.Random(30)
    budgets = set()
    statuses = set()
    for k, forbidden, rainbow, top in rules:
        n, last = 1, None
        for _ in range(24):
            n += rng.choice((1, 1, 1, 2, 3, 0, -1, -3))
            n = max(1, min(n, 2 * top - n))
            budget = None
            if last is not None and last[0] == FOUND:
                kind = rng.choice((None, None, "below", "equal"))
                budget = {None: None, "below": max(1, last[5] - rng.randint(1, 20)),
                          "equal": last[5]}[kind]
                budgets.add(kind)
            p = AvoidanceProblem(n, k, forbidden, rainbow)
            before = len(resumed)
            last = _outcome(exists_avoiding(p, budget=budget))
            assert last == _fresh_outcome(p, budget), (p, budget, len(resumed) > before)
            statuses.add(last[0])
    assert budgets == {None, "below", "equal"}
    assert statuses == {FOUND, EXHAUSTED, BUDGET_EXCEEDED}
    # resumed from order 2 and up only, to a higher order, with the budget at
    # least once exactly the steps already taken
    assert len(resumed) >= 30
    assert all(2 <= f < n for f, n, _ in resumed)
    assert any(b is not None for _, _, b in resumed)


def test_only_a_search_that_found_its_order_stays_suspended():
    gr3 = (3, (3, 3, 3), True)
    assert exists_avoiding(AvoidanceProblem(9, *gr3)).status == FOUND
    (s,) = search._suspended
    # a call on other rules drops it; a higher order on the first rules then
    # starts afresh
    assert exists_avoiding(AvoidanceProblem(5, 2, (5, 6))).status == FOUND
    assert search._suspended[0] is not s
    exists_avoiding(AvoidanceProblem(10, *gr3))
    assert search._suspended[0] is not s
    # a bad budget is refused while a search is suspended, and drops it
    with pytest.raises(BadParameters):
        exists_avoiding(AvoidanceProblem(11, *gr3), budget=0)
    assert search._suspended == []
    # exhaustion and a budget that runs out leave nothing suspended
    exists_avoiding(AvoidanceProblem(10, *gr3))
    assert exists_avoiding(AvoidanceProblem(11, *gr3)).status == EXHAUSTED
    assert search._suspended == []
    exists_avoiding(AvoidanceProblem(10, *gr3))
    steps = search._suspended[0].meter.steps
    out = exists_avoiding(AvoidanceProblem(11, *gr3), budget=steps)
    assert (out.status, out.stats.steps) == (BUDGET_EXCEEDED, steps)
    assert search._suspended == []


def test_edge_test_agrees_with_bruteforce_on_random_prefixes(monkeypatch):
    # _edge_ok asked as the search asks it: the coloring on 0..v-1 is fixed
    # and v's edges to 0..u-1 are colored.  Edge {u, v} may take color c
    # unless it closes a C_m in color c (permutation brute force) or, with
    # rainbow triangles forbidden, a triangle u v w in three colors (a loop
    # over w).  Answers found while earlier edges were asked are stored in
    # both rows, so many later answers are read from the rows, with no call
    # to the path search
    calls = []
    closes = _PathEnds.closes
    monkeypatch.setattr(_PathEnds, "closes", lambda *a: calls.append(a) or closes(*a))
    rng = random.Random(71)
    outcomes = set()
    for _ in range(100):
        k = rng.randint(1, 4)
        forbidden = tuple(rng.randint(3, 7) for _ in range(k))
        v = rng.randint(2, 8)
        s = search._Search(AvoidanceProblem(v + 1, k, forbidden, rng.random() < 0.5))
        weights = [rng.random() for _ in range(k)]

        def paint(a, b):
            c = rng.choices(range(1, k + 1), weights)[0]
            s.colors[a][b] = s.colors[b][a] = c
            s.masks[c][a] |= 1 << b
            s.masks[c][b] |= 1 << a

        for b in range(1, v):
            for a in range(b):
                paint(a, b)
        s.tables[v] = search._path_end_tables(s.masks, forbidden, v, s.triangles)
        # three vectors for v against one table, as after backtracking
        for _ in range(3):
            for u in range(v):
                for c in range(1, k + 1):
                    m = forbidden[c - 1]
                    cycle = cycle_through_edge_bruteforce(s.masks[c], u, v, m, range(v + 1))
                    cu, cv = s.colors[u], s.colors[v]
                    rainbow = s.p.rainbow_triangle_forbidden and any(
                        cu[w] and cv[w] and len({c, cu[w], cv[w]}) == 3 for w in range(v))
                    calls.clear()
                    ok = s._edge_ok(u, v, c)
                    assert ok == (not cycle and not rainbow), (s.colors, u, v, c, forbidden)
                    asked = m > 3 and s.tables[v][c] is not None and s.masks[c][v]
                    outcomes.add((ok, cycle, bool(asked) and not calls))
                paint(u, v)
            for u in range(v):
                c = s.colors[v][u]
                s.masks[c][u] ^= 1 << v
                s.masks[c][v] ^= 1 << u
                s.colors[u][v] = s.colors[v][u] = 0
    # refused for a cycle and for a rainbow triangle alone, and a cycle
    # question with m > 3 answered both ways from the rows
    assert {(False, True), (False, False), (True, False)} <= {o[:2] for o in outcomes}
    assert {(False, True, True), (True, False, True)} <= outcomes


def test_every_counted_node_is_canonical_or_rejected():
    # cycles are pruned when an edge is colored, so every node the search
    # counts is a cycle-free vector that the canonicity test keeps or rejects
    problems = [
        AvoidanceProblem(9, 2, (5, 6)),
        AvoidanceProblem(11, 2, (5, 6)),
        AvoidanceProblem(8, 2, (6, 6)),
        AvoidanceProblem(7, 2, (4, 5)),
        AvoidanceProblem.uniform(6, 2, 3),
        AvoidanceProblem.uniform(7, 3, 4, rainbow=True),
        AvoidanceProblem.uniform(10, 3, 3, rainbow=True),
    ]
    statuses = set()
    for p in problems:
        for budget in (None, 1, 7, 60, 200):
            out = exists_avoiding(p, budget=budget)
            st = out.stats
            assert st.nodes == st.canonical + st.rejected, (p, budget)
            statuses.add(out.status)
    assert statuses == {FOUND, EXHAUSTED, BUDGET_EXCEEDED}


def test_budgeted_search_is_deterministic():
    p = AvoidanceProblem.uniform(6, 2, 3)
    for budget in (3, 10, 50, None):
        a = exists_avoiding(p, budget=budget)
        b = exists_avoiding(p, budget=budget)
        assert a.status == b.status
        assert a.coloring == b.coloring
        assert (a.stats.nodes, a.stats.canonical, a.stats.rejected) == (
            b.stats.nodes,
            b.stats.canonical,
            b.stats.rejected,
        )


def test_feasibility_limits():
    # no order is capped by default; only a cap the caller sets raises OverLimit
    p = AvoidanceProblem.uniform(10, 2, 5)
    assert exists_avoiding(p).status == EXHAUSTED
    with pytest.raises(OverLimit):
        exists_avoiding(p, limit_overrides={2: 9})
    assert exists_avoiding(p, limit_overrides={2: 10, 3: 5}).status == EXHAUSTED


def test_search_recursion_reaches_order_sixty_four():
    # the search recurses once per edge, past the default recursion limit at
    # order 43; the limit is raised while it runs and restored afterwards
    limit = sys.getrecursionlimit()
    assert search_gallai_ramsey(43, 1).value == 43
    rep = search_gallai_ramsey(64, 1)
    assert rep.value == 64 and verify_certificate(rep).valid
    assert sys.getrecursionlimit() == limit


def test_one_cycle_test_cannot_outrun_the_budget():
    # R(C4,C34): every order up to 33 has an avoider, found in milliseconds;
    # at 34 the C34 test goes live, and one uncapped walk runs for over a
    # minute.  An even m has no construction, so the search runs
    t0 = time.process_time()
    rep = search_ramsey(4, 34, budget=200_000)
    assert time.process_time() - t0 < 30
    assert (rep.value, rep.lower, rep.upper, rep.witness.n) == (None, 34, None, 33)
    assert rep.params == {"m": 4, "n": 34, "budget": 200_000}
    assert rep.stats.steps <= 200_000
    assert verify_certificate(rep).valid


def test_search_ramsey_past_sixty_four_vertices_takes_two_cliques_of_32():
    # 2n - 2 > 64: two K_32 in color 2 joined in color 1 hold no C_n in color
    # 2 and no odd cycle in color 1, so they stand for every order up to 64
    two_cliques, _ = build_ramsey_cycle_lower(5, 33)
    for m, n in [(3, 34), (5, 34), (35, 40)]:
        rep = search_ramsey(m, n, budget=200_000)
        assert (rep.value, rep.lower, rep.upper) == (None, 65, None)
        assert (rep.stats.nodes, rep.stats.steps) == (0, 0)
        assert rep.witness == two_cliques
        assert verify_certificate(rep).valid


def test_a_node_weighs_its_order_times_its_colors():
    # with only triangles forbidden no walk runs, and every step is a node's
    # weight.  gr_5(K_3 : C_3) finds avoiders up to order 41 in seconds; near
    # 42 a node is up to 42 * 5 = 210 steps, so the default budget ends the
    # search within a minute, where one step per node took hours
    p = AvoidanceProblem.uniform(42, 5, 3, rainbow=True)
    out = exists_avoiding(p, budget=20_000)
    assert (out.status, out.stats.nodes, out.stats.steps) == (BUDGET_EXCEEDED, 143, 19_955)
    # one search covers every order, so the budget caps the whole of it
    rep = search_gallai_ramsey(3, 5, budget=100_000)
    assert (rep.value, rep.lower, rep.stats.nodes) == (None, 40, 633)
    assert rep.stats.steps <= 100_000
    assert verify_certificate(rep).valid


def test_bad_problem_parameters():
    with pytest.raises(BadParameters):
        AvoidanceProblem(5, 2, (3,))
    with pytest.raises(BadParameters):
        AvoidanceProblem(5, 2, (3, 2))
    with pytest.raises(BadParameters):
        search_ramsey(2, 5)
    with pytest.raises(BadParameters):
        search_gallai_ramsey(5, 0)


# -- threshold searches -----------------------------------------------------------------


def test_search_ramsey_small_exact_values():
    assert search_ramsey(3, 3).value == 6
    # for odd m the two cliques are as deep as the search goes: they are the witness
    rep = search_ramsey(3, 5)
    assert (rep.value, rep.lower, rep.upper) == (9, 9, 9)
    assert rep.witness == build_ramsey_cycle_lower(3, 5)[0]
    assert verify_certificate(rep).valid
    assert search_ramsey(4, 4).value == 6
    rep = search_ramsey(4, 5)
    assert rep.value == 7 == rep.lower == rep.upper
    assert rep.witness.n == 6
    assert verify_certificate(rep).valid


def test_default_budget_settles_small_thresholds():
    rep = search_ramsey(5, 6)
    assert rep.value == 11 == ramsey_formula(5, 6)
    assert rep.params == {"m": 5, "n": 6, "budget": search.DEFAULT_BUDGET}
    # the 10-vertex construction settles orders 1..10; only n=11 is searched
    assert rep.stats.nodes == 263
    assert verify_certificate(rep).valid
    rep = search_gallai_ramsey(3, 3)
    assert rep.value == 11 == gallai_ramsey_formula(3, 3)
    assert verify_certificate(rep).valid


def test_search_ramsey_c5_c7_exhausts_at_thirteen():
    rep = search_ramsey(5, 7)
    assert rep.value == 13 == ramsey_formula(5, 7)
    # the 12-vertex construction settles orders 1..12; only n=13 is searched
    assert rep.stats.nodes == 644
    assert verify_certificate(rep).valid


def test_search_gallai_c7_two_colors_exhausts_at_thirteen():
    # the paper's smallest instance: gr_2(K_3 : C_7) = 3 * 2^2 + 1
    rep = search_gallai_ramsey(7, 2)
    assert rep.value == 13 == rep.lower == rep.upper == gallai_ramsey_formula(7, 2)
    # the 12-vertex doubled construction settles orders 1..12; only n=13 is searched
    assert (rep.stats.nodes, rep.stats.canonical, rep.stats.rejected) == (1280, 477, 803)
    assert rep.witness.n == 12
    assert verify_certificate(rep).valid


def test_search_gallai_c5_three_colors_exhausts_at_seventeen(monkeypatch):
    # gr_3(K_3 : C_5) = 2^4 + 1 (Fujita & Magnant 2011); the exhaustion at 17
    # stores every class of levels 2..16, counted here from the accepts
    add = _ClassStore.add
    reps = []

    def recording_add(self, masks, ell, sizes):
        kept = add(self, masks, ell, sizes)
        if kept:
            reps.append(([row[:ell] for row in masks], ell))
        return kept

    monkeypatch.setattr(_ClassStore, "add", recording_add)
    rep = search_gallai_ramsey(5, 3)
    assert rep.value == 17 == rep.lower == rep.upper == gallai_ramsey_formula(5, 3)
    # the 16-vertex doubled construction settles orders 1..16; only n=17 is searched
    assert (rep.stats.nodes, rep.stats.canonical, rep.stats.rejected) == (5066, 2167, 2899)
    assert verify_certificate(rep).valid
    levels = range(2, 17)
    assert [sum(ell == level for _, ell in reps) for level in levels] == [
        1, 2, 8, 23, 70, 150, 254, 331, 403, 377, 295, 154, 74, 18, 7,
    ]
    monkeypatch.setattr(_ClassStore, "add", add)
    assert [
        _vertex_class_count([r for r in reps if r[1] == level], [(1, 2, 3)]) for level in levels
    ] == [3, 9, 39, 132, 405, 891, 1497, 1980, 2388, 2262, 1734, 921, 432, 108, 33]


def test_search_ramsey_partial_prefers_construction_witness():
    rep = search_ramsey(5, 7, budget=100)  # true value 13, 644 nodes at order 13
    assert rep.value is None and rep.upper is None
    assert rep.lower == 13
    assert rep.witness.n == 12
    assert verify_certificate(rep).valid


def test_search_ramsey_respects_a_lowered_limit():
    rep = search_ramsey(5, 5, budget=10)
    assert rep.value is None
    # the construction on 8 vertices pins the bound; at order 9 nodes of
    # orders 2 and 3 (4 + 6 steps) use the 10 steps, one of order 4 does not fit
    assert (rep.lower, rep.stats.nodes, rep.stats.steps) == (9, 2, 10)
    assert rep.params == {"m": 5, "n": 5, "budget": 10}
    assert verify_certificate(rep).valid


def test_search_gallai_single_color_is_the_cycle_order():
    for m in (5, 6, 7):
        rep = search_gallai_ramsey(m, 1)
        assert rep.value == m
        assert verify_certificate(rep).valid


def test_search_gallai_two_colors_matches_plain_ramsey():
    a = search_gallai_ramsey(5, 2)
    b = search_ramsey(5, 5)
    assert a.value == b.value == 9


def test_search_reports_are_run_to_run_identical():
    a = search_ramsey(4, 5)
    b = search_ramsey(4, 5)
    assert reports_equivalent(a, b)
    # (5, 3) runs out of budget at order 17; (3, 3) exhausts at 11
    for m in (5, 3):
        c = search_gallai_ramsey(m, 3, budget=20_000)
        d = search_gallai_ramsey(m, 3, budget=20_000)
        assert reports_equivalent(c, d)


def test_search_gallai_partial_uses_doubled_construction():
    rep = search_gallai_ramsey(7, 3, budget=1000)
    assert rep.value is None
    assert rep.lower == 25  # 3 * 2^3 + 1
    assert rep.witness.n == 24
    assert verify_certificate(rep).valid


def test_search_gallai_past_sixty_four_vertices_takes_a_slice():
    # 5 * 2^5 = 160 vertices do not fit: the 40-vertex doubling joined in
    # color 4 to its own first 24 vertices stands for every order up to 64,
    # so no search runs
    t0 = time.process_time()
    rep = search_gallai_ramsey(11, 5)
    assert time.process_time() - t0 < 1
    assert (rep.value, rep.lower, rep.upper, rep.stats.nodes) == (None, 65, None, 0)
    assert (rep.witness.n, rep.witness.k) == (64, 5)
    assert verify_certificate(rep).valid
    for ell, k in [(5, 5), (3, 5), (4, 5), (2, 6), (2, 7), (7, 4), (15, 3), (11, 3), (21, 2),
                   (32, 2)]:
        rep = search_gallai_ramsey(2 * ell + 1, k, budget=1)
        assert (rep.lower, rep.witness.n, rep.witness.k) == (65, 64, k)
        assert verify_certificate(rep).valid


def test_formula_cross_check_trips_on_contradiction(monkeypatch):
    import gallai_lab.search as search_mod

    monkeypatch.setattr(search_mod, "ramsey_formula", lambda m, n: 99)
    with pytest.raises(AssertionError):
        search_mod.search_ramsey(4, 4)
    monkeypatch.setattr(search_mod, "gallai_ramsey_formula", lambda m, k: 99)
    with pytest.raises(AssertionError):
        search_mod.search_gallai_ramsey(5, 1)


def test_dirty_construction_is_refused(monkeypatch):
    import gallai_lab.search as search_mod

    # K_8 in one color holds every cycle, so it cannot stand for orders 1..8
    dirty = ColoredCompleteGraph(8, 2, [1] * 28)
    monkeypatch.setattr(search_mod, "build_ramsey_cycle_lower", lambda m, n: (dirty, None))
    with pytest.raises(AssertionError):
        search_mod.search_ramsey(5, 5)


# -- report serialization and verification ------------------------------------------------


def test_report_json_round_trip():
    rep = search_ramsey(4, 4)
    d = rep.to_json_dict(witness_file="w.txt")
    assert d["witness_file"] == "w.txt"
    assert set(d["stats"].keys()) == {"nodes", "canonical", "rejected", "steps", "ms"}
    again = SearchReport.from_json_dict(d, witness=rep.witness)
    assert reports_equivalent(rep, again)


def test_reports_equivalent_ignores_wall_time_only():
    rep = search_ramsey(3, 3)
    clone = SearchReport.from_json_dict(rep.to_json_dict(), witness=rep.witness)
    clone.stats.ms = rep.stats.ms + 1000
    assert reports_equivalent(rep, clone)
    clone.stats.nodes += 1
    assert not reports_equivalent(rep, clone)


def test_verify_certificate_rejects_tampering():
    rep = search_ramsey(4, 5)
    assert verify_certificate(rep).valid

    bent = SearchReport.from_json_dict(rep.to_json_dict(), witness=rep.witness)
    bent.lower = rep.lower + 1
    assert not verify_certificate(bent).valid

    wrong_witness = SearchReport.from_json_dict(
        rep.to_json_dict(), witness=random_coloring(random.Random(0), 6, 2)
    )
    check = verify_certificate(wrong_witness)
    assert not check.valid and check.witness is not None

    missing = SearchReport.from_json_dict(rep.to_json_dict(), witness=None)
    assert not verify_certificate(missing).valid

    alien = SearchReport.from_json_dict(rep.to_json_dict(), witness=rep.witness)
    alien.family = "Folkman"
    assert not verify_certificate(alien).valid


def test_verify_accepts_reports_with_the_dropped_n_max_param():
    # earlier versions wrote n_max into params; verify ignores it
    rep = search_ramsey(4, 5)
    d = rep.to_json_dict()
    d["params"]["n_max"] = None
    assert verify_certificate(SearchReport.from_json_dict(d, witness=rep.witness)).valid
    # later ones wrote a probe seed in place of the budget, and no steps
    d = rep.to_json_dict()
    del d["params"]["budget"], d["stats"]["steps"]
    d["params"]["seed"] = 0
    assert verify_certificate(SearchReport.from_json_dict(d, witness=rep.witness)).valid


def test_verify_certificate_checks_partial_shape():
    rep = search_ramsey(5, 7, budget=100)
    bent = SearchReport.from_json_dict(rep.to_json_dict(), witness=rep.witness)
    bent.upper = 99
    assert not verify_certificate(bent).valid


def test_verify_cost_does_not_grow_with_the_declared_palette(monkeypatch):
    # a 3-vertex witness on two colors of a declared palette of 100,000
    k = 10**5
    g = ColoredCompleteGraph(3, k, [1, 2, 2])
    rep = SearchReport("GallaiRamsey", {"m": 5, "k": k}, None, 4, None, g, SearchStats())
    calls = []
    real = detectors.find_mono_cycle
    monkeypatch.setattr(detectors, "find_mono_cycle", lambda *a: calls.append(a) or real(*a))
    tracemalloc.start()
    try:
        check = verify_certificate(rep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.valid
    assert len(calls) <= len(g.colors_used())
    assert peak < 200_000
