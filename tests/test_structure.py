"""Partition finder, validator, reduced graphs, recoloring, between-part cycles."""

from __future__ import annotations

import itertools
import random

import pytest

import gallai_lab.structure as structure
from gallai_lab.coloring import (
    ColoredCompleteGraph,
    VertexSubset,
    bits,
    closure,
    complete_monochromatic,
    induced,
    relabel,
    substitute,
)
from gallai_lab.constructions import build_extremal_odd, random_gallai
from gallai_lab.detectors import (
    _first_rainbow,
    _gallai_blocks,
    find_mono_cycle,
    find_rainbow_triangle,
)
from gallai_lab.errors import HypothesisViolated, InvalidPartition, NotGallai
from gallai_lab.structure import (
    GallaiPartition,
    between_parts_cycle,
    gallai_partition,
    reconstruct,
    recolor_small_parts,
    reduced_graph,
    validate_partition,
)

from oracles import (
    gallai_partition_reference,
    random_coloring,
    rainbow_triangles_bruteforce,
    random_hub_configuration,
    set_partitions,
)


def _parts_of(p: GallaiPartition) -> list[tuple[int, ...]]:
    return [tuple(s.vertices()) for s in p.parts]


# -- validate_partition ------------------------------------------------------------


def test_validate_partition_accepts_a_true_partition():
    base = ColoredCompleteGraph(2, 2, [2])
    inner = complete_monochromatic(3, 2, 1)
    g = substitute(base, [inner, inner])
    p = gallai_partition(g)
    rep = validate_partition(g, p)
    assert rep.ok, rep.reason


def test_validate_partition_flags_bad_edges():
    g = substitute(ColoredCompleteGraph(2, 2, [2]), [complete_monochromatic(2, 2, 1)] * 2)
    good = gallai_partition(g)
    # break the declared color of the (0, 1) pair
    bad = GallaiPartition(
        n=g.n,
        parts=good.parts,
        between_colors=(1,),
        pair_colors=tuple((i, j, 1) for i, j, _ in good.pair_colors),
    )
    rep = validate_partition(g, bad)
    assert not rep.ok and rep.edge is not None


def test_validate_partition_flags_cover_and_overlap():
    g = random_coloring(random.Random(0), 6, 2)
    incomplete = GallaiPartition(
        n=6,
        parts=(VertexSubset.of(6, [0, 1]), VertexSubset.of(6, [2, 3])),
        between_colors=(g.color_of(0, 2),),
        pair_colors=((0, 1, g.color_of(0, 2)),),
    )
    rep = validate_partition(g, incomplete)
    assert not rep.ok
    overlapping = GallaiPartition(
        n=6,
        parts=(VertexSubset.of(6, range(4)), VertexSubset.of(6, [3, 4, 5])),
        between_colors=(g.color_of(0, 4),),
        pair_colors=((0, 1, g.color_of(0, 4)),),
    )
    assert not validate_partition(g, overlapping).ok


def test_validate_partition_rejects_three_between_colors():
    # star-like substitution with three between colors is not a valid outcome
    g = random_coloring(random.Random(1), 6, 3)
    p = GallaiPartition(
        n=6,
        parts=tuple(VertexSubset.of(6, [i]) for i in range(6)),
        between_colors=(1, 2, 3),
        pair_colors=tuple(
            (i, j, g.color_of(i, j)) for j in range(6) for i in range(j)
        ),
    )
    assert not validate_partition(g, p).ok


def test_validate_partition_rejects_a_pair_declared_twice():
    g = substitute(ColoredCompleteGraph(2, 2, [2]), [complete_monochromatic(2, 2, 1)] * 2)
    twice = GallaiPartition(
        n=4,
        parts=(VertexSubset.of(4, [0, 1]), VertexSubset.of(4, [2, 3])),
        between_colors=(1, 2),
        pair_colors=((0, 1, 1), (0, 1, 2)),
    )
    rep = validate_partition(g, twice)
    assert not rep.ok and rep.pair == (0, 1)
    with pytest.raises(InvalidPartition):
        reconstruct(g, twice)


# -- gallai_partition on structured inputs ------------------------------------------


def _substitutions(rng, count: int):
    """Random Gallai parts blown into monochromatic bases and P4 two-color bases."""
    for i in range(count):
        k = rng.randint(2, 5)
        a, b = rng.sample(range(1, k + 1), 2)
        if i % 2:
            base = ColoredCompleteGraph(4, k, [a, b, a, b, b, a])  # path 0-1-2-3 in color a
        else:
            t = rng.randint(2, 5)
            base = ColoredCompleteGraph(t, k, [a] * (t * (t - 1) // 2))
        sizes = [rng.randint(1, 10) for _ in range(base.n)]
        yield substitute(base, [random_gallai(s, k, rng.randrange(10**6)) for s in sizes])


def test_partition_matches_the_definitional_reference():
    rng = random.Random(19)
    hosts = [random_gallai(rng.randint(2, 40), rng.randint(1, 6), rng.randrange(10**6))
             for _ in range(300)]
    hosts += _substitutions(rng, 100)
    # two-color roots with many blocks: uniform 2-colorings are mostly prime
    hosts += [random_coloring(rng, rng.randint(2, 16), 2) for _ in range(100)]
    wide = random_gallai(64, 2, 6)
    hosts.append(wide)
    # uniform colorings in 3-5 colors, nearly all with a rainbow triangle
    hosts += [random_coloring(rng, rng.randint(3, 12), rng.randint(3, 5)) for _ in range(100)]
    rainbow = 0
    for g in hosts:
        w = find_rainbow_triangle(g)
        for coarsest in (False, True):
            if w is None:
                assert gallai_partition(g, coarsest) == gallai_partition_reference(g, coarsest)
            else:
                with pytest.raises(NotGallai) as info:
                    gallai_partition(g, coarsest)
                assert info.value.witness == w
        rainbow += w is not None
    assert rainbow >= 90
    assert len(gallai_partition(wide).parts) == 64
    coarse = gallai_partition(wide, coarsest=True)
    assert len(coarse.parts) == 8 and coarse.between_colors == (1, 2)


def test_split_lemma_on_any_coloring_and_vertex_set():
    # At most one single color splits s; if c does, every other set that
    # splits s is a pair holding c, with as many blocks or more; if none
    # does, at most one pair splits s, and both its colors meet s's least
    # vertex inside s.  gallai_partition takes only the first such set, the
    # split that the rainbow scan returns with s's first rainbow triangle.
    rng = random.Random(24)
    pair_roots = 0
    for trial in range(400):
        n = rng.randint(2, 20)
        k = rng.randint(2, 5)
        if trial % 2:
            g = random_gallai(n, k, rng.randrange(10**6))
        else:
            g = random_coloring(rng, n, k)
        s = (1 << n) - 1 if trial % 4 < 2 else rng.randrange(1, 1 << n)
        rows = _rows(g)
        x = (s & -s).bit_length() - 1
        at_x = {c for c in rows if rows[c][x] & s}
        used = g.colors_used()
        splits = {}
        for cand in [(c,) for c in used] + list(itertools.combinations(used, 2)):
            blocks = _gallai_blocks(rows, cand, s)
            if blocks is not None:
                splits[cand] = blocks
                assert at_x & set(cand), (g.edge_colors(), cand, s)
        singles = [cand for cand in splits if len(cand) == 1]
        assert len(singles) <= 1
        if singles:
            (c,) = singles[0]
            for cand, blocks in splits.items():
                assert c in cand and len(blocks) >= len(splits[singles[0]])
        else:
            assert len(splits) <= 1
            for cand in splits:
                assert set(cand) <= at_x
                pair_roots += 1
        found, split = _first_rainbow(rows, g.edge_colors(), s)
        inside = [t for t in rainbow_triangles_bruteforce(g) if all(s >> v & 1 for v in t)]
        assert found == (inside[0] if inside else None), (g.edge_colors(), s)
        order = [(c,) for c in sorted(at_x)] + list(itertools.combinations(sorted(at_x), 2))
        if split is not None:
            assert split == next(splits[cand] for cand in order if cand in splits)
        else:
            assert found is not None or s.bit_count() == 1
    assert pair_roots >= 20


def _rows(g: ColoredCompleteGraph) -> dict:
    return {c: g.class_masks(c) for c in g.colors_used()}


def test_candidate_blocks_are_pairwise_joined_in_one_color():
    # Why gallai_partition never merges blocks: with no rainbow triangle, the
    # components of the colors outside a candidate set meet in one color.
    rng = random.Random(22)
    for _ in range(100):
        g = random_gallai(rng.randint(2, 30), rng.randint(2, 6), rng.randrange(10**6))
        used = g.colors_used()
        for cand in [(c,) for c in used] + list(itertools.combinations(used, 2)):
            blocks = _gallai_blocks(_rows(g), cand, (1 << g.n) - 1)
            for a, b in itertools.combinations(blocks or [], 2):
                between = {g.color_of(u, v) for u in bits(a) for v in bits(b)}
                assert len(between) == 1 and between <= set(cand)
    # A rainbow triangle breaks it: block {0, 1} (color 3) meets {2} in
    # colors 1 and 2, so the split is refused.
    g = ColoredCompleteGraph(3, 3, [3, 1, 2])
    assert _gallai_blocks(_rows(g), (1, 2), 0b111) is None


def test_gallai_blocks_are_the_components_outside_the_candidate_colors():
    # On any coloring and any vertex set s, the blocks are the components
    # inside s of the other colors (found here by closure over their rows);
    # two colors also need each pair of blocks joined in one color.
    rng = random.Random(23)
    for _ in range(300):
        n = rng.randint(2, 24)
        k = rng.randint(2, 5)
        if rng.random() < 0.5:
            g = random_gallai(n, k, rng.randrange(10**6))
        else:
            g = random_coloring(rng, n, k)
        s = rng.randrange(1, 1 << n) if rng.random() < 0.5 else (1 << n) - 1
        used = g.colors_used()
        for cand in [(c,) for c in used] + list(itertools.combinations(used, 2)):
            other = [0] * n
            for c in used:
                if c not in cand:
                    other = [a | b for a, b in zip(other, g.class_masks(c))]
            comps = []
            left = s
            while left:
                comp = closure(other, left & -left, left)
                comps.append(comp)
                left &= ~comp
            joined = all(
                len({g.color_of(u, v) for u in bits(a) for v in bits(b)}) == 1
                for a, b in itertools.combinations(comps, 2)
            )
            expect = comps if len(comps) > 1 and (len(cand) == 1 or joined) else None
            assert _gallai_blocks(_rows(g), cand, s) == expect, (g.edge_colors(), cand, s)


def test_partition_validates_once_per_call(monkeypatch):
    calls = []
    validate = structure.validate_partition
    monkeypatch.setattr(structure, "validate_partition",
                        lambda g, p: calls.append(p) or validate(g, p))
    rng = random.Random(20)
    for g in _substitutions(rng, 10):
        for coarsest in (False, True):
            calls.clear()
            p = gallai_partition(g, coarsest)
            assert calls == [p]


def test_partition_of_a_substitution_recovers_blocks():
    rng = random.Random(2)
    for _ in range(30):
        k = rng.randint(2, 4)
        t = rng.randint(2, 4)
        c1, c2 = rng.randint(1, k), rng.randint(1, k)
        base_flat = [rng.choice((c1, c2)) for _ in range(t * (t - 1) // 2)]
        base = ColoredCompleteGraph(t, k, base_flat)
        sizes = [rng.randint(1, 3) for _ in range(t)]
        parts = [random_gallai(s, k, rng.randrange(999)) for s in sizes]
        g = substitute(base, parts)
        p = gallai_partition(g)
        assert validate_partition(g, p).ok
        assert len(p.parts) >= 2
        assert len(p.between_colors) <= 2


def test_partition_random_gallai_sweep():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(2, 24)
        k = rng.randint(1, 5)
        g = random_gallai(n, k, rng.randrange(10**6))
        p = gallai_partition(g)
        rep = validate_partition(g, p)
        assert rep.ok, rep.reason
        assert reconstruct(g, p) == g


def test_partition_raises_on_rainbow_input():
    g = ColoredCompleteGraph(3, 3, [1, 2, 3])
    with pytest.raises(NotGallai) as info:
        gallai_partition(g)
    assert info.value.witness.vertices == (0, 1, 2)
    with pytest.raises(ValueError):
        gallai_partition(complete_monochromatic(1, 1, 1))


def test_partition_parts_ordered_large_to_small():
    base = ColoredCompleteGraph(2, 2, [2])
    g = substitute(base, [complete_monochromatic(1, 2, 1), complete_monochromatic(4, 2, 1)])
    p = gallai_partition(g)
    sizes = [len(s) for s in p.parts]
    assert sizes == sorted(sizes, reverse=True)


def test_partition_deterministic():
    rng = random.Random(4)
    for _ in range(20):
        g = random_gallai(rng.randint(2, 18), rng.randint(1, 4), rng.randrange(999))
        assert gallai_partition(g) == gallai_partition(g)


def test_scan_and_partition_copy_no_rows(monkeypatch):
    # Both read the graph's own row table: they ask for neither the palette
    # nor a class copy, and leave every class as it was.
    hosts = [
        random_gallai(40, 4, 9),
        random_gallai(64, 300, 5),
        ColoredCompleteGraph(64, 2016, range(1, 2017)),
    ]
    before = [{c: g.class_masks(c) for c in g.colors_used()} for g in hosts]
    calls = []

    def spy(name):
        method = getattr(ColoredCompleteGraph, name)
        return lambda self, *args: calls.append(name) or method(self, *args)

    for name in ("colors_used", "class_masks"):
        monkeypatch.setattr(ColoredCompleteGraph, name, spy(name))
    for g in hosts[:2]:
        assert find_rainbow_triangle(g) is None
        for coarsest in (False, True):
            assert validate_partition(g, gallai_partition(g, coarsest)).ok
    rainbow = hosts[2]
    assert find_rainbow_triangle(rainbow).vertices == (0, 1, 2)
    for coarsest in (False, True):
        with pytest.raises(NotGallai) as info:
            gallai_partition(rainbow, coarsest)
        assert info.value.witness.vertices == (0, 1, 2)
    assert calls == []
    monkeypatch.undo()
    assert [{c: g.class_masks(c) for c in g.colors_used()} for g in hosts] == before


# -- coarsest flag vs brute-force set partitions -------------------------------------


def _valid_by_definition(g, groups) -> bool:
    """Direct reading: every part pair monochromatic, at most 2 colors between."""
    if len(groups) < 2:
        return False
    between = set()
    for j in range(len(groups)):
        for i in range(j):
            cols = {
                g.color_of(u, v) for u in groups[i] for v in groups[j]
            }
            if len(cols) != 1:
                return False
            between |= cols
    return len(between) <= 2


def test_coarsest_matches_set_partition_oracle_or_is_logged():
    rng = random.Random(5)
    disagreements = []
    for _ in range(60):
        n = rng.randint(2, 7)
        g = random_gallai(n, rng.randint(1, 3), rng.randrange(999))
        p = gallai_partition(g, coarsest=True)
        assert validate_partition(g, p).ok
        best = min(
            (len(gr) for gr in set_partitions(list(range(n))) if _valid_by_definition(g, gr)),
            default=None,
        )
        assert best is not None
        if len(p.parts) != best:
            disagreements.append((g, len(p.parts), best))
    # twin merging promises a local fixpoint, not the global minimum: it
    # stops early on a module of the blocks whose twin-merged quotient is
    # twin-free, such as a P4; record how often the gap shows up at this scale
    rate = len(disagreements) / 60
    assert rate <= 0.2, f"merge heuristic missed the global optimum too often: {rate}"


def test_coarsest_never_admits_a_valid_pair_merge():
    rng = random.Random(6)
    for _ in range(40):
        g = random_gallai(rng.randint(3, 12), rng.randint(1, 4), rng.randrange(999))
        p = gallai_partition(g, coarsest=True)
        groups = _parts_of(p)
        if len(groups) == 2:
            continue
        for j in range(len(groups)):
            for i in range(j):
                merged = [list(gr) for t, gr in enumerate(groups) if t not in (i, j)]
                merged.append(list(groups[i]) + list(groups[j]))
                assert not _valid_by_definition(g, merged), (
                    f"parts {i} and {j} could have been merged"
                )


# -- reduced graph and reconstruction ------------------------------------------------


def test_reduced_graph_inherits_between_colors():
    rng = random.Random(7)
    for _ in range(40):
        g = random_gallai(rng.randint(2, 20), rng.randint(1, 4), rng.randrange(999))
        p = gallai_partition(g)
        red = reduced_graph(g, p)
        assert red.n == len(p.parts)
        assert len(red.colors_used()) <= 2
        for j in range(red.n):
            for i in range(j):
                assert red.color_of(i, j) == p.pair_color(i, j)


def test_reduced_graph_of_64_singleton_parts_is_the_host():
    rng = random.Random(21)
    g = ColoredCompleteGraph(64, 2, [rng.randint(1, 2) for _ in range(64 * 63 // 2)])
    p = gallai_partition(g)
    assert len(p.parts) == 64
    assert reduced_graph(g, p) == g
    assert reconstruct(g, p) == g


def test_reduced_graph_rejects_foreign_partition():
    g = random_gallai(8, 2, 0)
    other = random_gallai(8, 2, 5)
    p = gallai_partition(g)
    try:
        reduced_graph(other, p)
    except InvalidPartition:
        pass
    else:
        # the partition may happen to be valid for the other coloring too;
        # then the reduced graph must still validate against it
        assert validate_partition(other, p).ok


def test_reconstruct_is_bit_exact_even_for_scattered_parts():
    rng = random.Random(8)
    for _ in range(60):
        g0 = random_gallai(rng.randint(2, 16), rng.randint(1, 4), rng.randrange(999))
        perm = list(range(g0.n))
        rng.shuffle(perm)
        g = relabel(g0, perm)  # scatter any contiguous block structure
        p = gallai_partition(g)
        assert validate_partition(g, p).ok
        assert reconstruct(g, p) == g


# -- recolor_small_parts --------------------------------------------------------------


def _hub_configuration(rng, k: int, m: int):
    return random_hub_configuration(rng, k, m)


def test_recolor_produces_a_k_palette_without_new_structure():
    rng = random.Random(9)
    done = 0
    while done < 60:
        k = rng.randint(2, 4)
        m = rng.randint(3, 6)
        g, a_set, b_sets = _hub_configuration(rng, k, m)
        if any(find_mono_cycle(g, c, m) is not None for c in range(1, k + 1)):
            continue  # hypothesis: the kept colors carry no C_m to begin with
        out = recolor_small_parts(g, a_set, b_sets, k, m)
        assert out.k == k
        assert find_rainbow_triangle(out) is None
        for c in range(1, k + 1):
            assert find_mono_cycle(out, c, m) is None
        # edges outside the B-interiors are untouched
        for v in range(g.n):
            for u in range(v):
                inside = any(u in b and v in b for b in b_sets)
                if not inside:
                    assert out.color_of(u, v) == g.color_of(u, v)
        done += 1


def test_recolor_rejects_broken_hypotheses():
    rng = random.Random(10)
    g, a_set, b_sets = _hub_configuration(rng, 3, 4)
    recolor_small_parts(g, a_set, b_sets, 3, 4)  # sanity: this one is fine
    with pytest.raises(HypothesisViolated):
        recolor_small_parts(g, a_set, b_sets[:1], 3, 4)  # wrong part count
    with pytest.raises(HypothesisViolated):
        # sets that do not cover the host
        recolor_small_parts(g, VertexSubset.of(g.n, [0]), b_sets, 3, 4)
    big = VertexSubset.of(g.n, list(a_set.vertices()) + list(b_sets[0].vertices()))
    with pytest.raises(HypothesisViolated):
        recolor_small_parts(g, big, b_sets, 3, 4)  # overlap
    with pytest.raises(ValueError):
        recolor_small_parts(g, a_set, b_sets, 0, 4)
    with pytest.raises(ValueError):
        recolor_small_parts(g, a_set, b_sets, 3, 1)


def test_recolor_flags_oversized_parts():
    rng = random.Random(11)
    while True:
        g, a_set, b_sets = _hub_configuration(rng, 2, 5)
        if len(b_sets[0]) >= 2:
            break
    # calling with m equal to the part order breaks |B_i| <= m - 1
    with pytest.raises(HypothesisViolated):
        recolor_small_parts(g, a_set, b_sets, 2, len(b_sets[0]))


# -- between_parts_cycle ---------------------------------------------------------------


def _two_block_coloring(ell: int, extra: int, between: int = 1) -> tuple:
    """Two parts of order <= ell joined in one color; total 2*ell + 1 + extra."""
    n = 2 * ell + 1 + extra
    sizes = []
    left = n
    while left > 0:
        s = min(ell, left)
        sizes.append(s)
        left -= s
    parts = []
    off = 0
    groups = []
    for s in sizes:
        groups.append(list(range(off, off + s)))
        off += s
    flat = []
    for v in range(1, n):
        for u in range(v):
            same = any(u in gr and v in gr for gr in groups)
            flat.append(2 if same else between)
    g = ColoredCompleteGraph(n, 2, flat)
    p = gallai_partition(g)
    return g, p


def test_between_parts_cycle_finds_odd_cycle():
    for ell in (2, 3, 4):
        for extra in (0, 1, 3):
            g, p = _two_block_coloring(ell, extra)
            assert validate_partition(g, p).ok
            w = between_parts_cycle(g, p, ell)
            assert w.color == 1
            assert len(w.vertices) == 2 * ell + 1
            assert find_mono_cycle(g, 1, 2 * ell + 1) is not None


def test_between_parts_cycle_rejects_bad_inputs():
    g, p = _two_block_coloring(3, 0)
    with pytest.raises(ValueError):
        between_parts_cycle(g, p, 0)
    with pytest.raises(HypothesisViolated):
        between_parts_cycle(g, p, 4)  # n < 2*4 + 1
    # a partition with an oversized part
    base = ColoredCompleteGraph(2, 2, [1])
    blob = complete_monochromatic(4, 2, 2)
    g2 = substitute(base, [blob, blob])
    p2 = gallai_partition(g2)
    with pytest.raises(HypothesisViolated):
        between_parts_cycle(g2, p2, 3)  # parts of order 4 > 3


def test_partition_json_shape():
    g, p = _two_block_coloring(2, 0)
    d = p.to_json_dict()
    assert set(d.keys()) == {"parts", "between_colors", "pair_colors"}
    assert all(isinstance(x, list) for x in d["parts"])
