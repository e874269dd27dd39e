"""Core model: construction, indexing, surgery, serialization."""

from __future__ import annotations

import random

import pytest

from gallai_lab.coloring import (
    MAX_VERTICES,
    BitGraph,
    ColoredCompleteGraph,
    VertexSubset,
    build,
    complete_monochromatic,
    induced,
    pair_index,
    parse,
    relabel,
    serialize,
    substitute,
)
from gallai_lab.errors import (
    ArityMismatch,
    ColoringParseError,
    ColorOutOfRange,
    EmptySubset,
    MissingPair,
    SizeLimitExceeded,
)

from oracles import random_coloring


def test_pair_index_is_the_triangular_layout():
    n = 9
    seen = []
    for v in range(n):
        for u in range(v):
            seen.append(pair_index(u, v))
    assert seen == list(range(n * (n - 1) // 2))


def test_color_of_round_trips_every_pair():
    rng = random.Random(0)
    g = random_coloring(rng, 13, 4)
    flat = g.edge_colors()
    for v in range(g.n):
        for u in range(v):
            assert g.color_of(u, v) == flat[pair_index(u, v)]
            assert g.color_of(v, u) == g.color_of(u, v)


def test_constructor_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ColoredCompleteGraph(0, 1, [])
    with pytest.raises(SizeLimitExceeded):
        ColoredCompleteGraph(MAX_VERTICES + 1, 1, [1] * (65 * 64 // 2))
    with pytest.raises(ValueError):
        ColoredCompleteGraph(3, 2, [1, 2])  # wrong length
    with pytest.raises(ColorOutOfRange):
        ColoredCompleteGraph(3, 2, [1, 2, 3])
    with pytest.raises(ColorOutOfRange):
        ColoredCompleteGraph(3, 2, [1, 0, 2])


def test_class_masks_agree_with_colors():
    rng = random.Random(1)
    for _ in range(20):
        g = random_coloring(rng, rng.randint(2, 16), rng.randint(1, 5))
        for c in range(1, g.k + 1):
            masks = g.class_masks(c)
            for v in range(g.n):
                for u in range(g.n):
                    expect = u != v and g.color_of(u, v) == c
                    assert bool((masks[v] >> u) & 1) == expect


def test_class_masks_returns_a_copy():
    g = complete_monochromatic(4, 2, 1)
    m = g.class_masks(1)
    m[0] = 0
    assert g.class_masks(1)[0] != 0


def test_build_from_pair_map():
    colors = {(0, 1): 1, (2, 1): 2, (0, 2): 1}
    g = build(3, 2, colors)
    assert g.color_of(1, 2) == 2
    with pytest.raises(MissingPair):
        build(3, 2, {(0, 1): 1})
    with pytest.raises(ValueError):
        build(3, 2, {(0, 1): 1, (1, 0): 2, (0, 2): 1, (1, 2): 1})


def test_colors_used_skips_empty_classes():
    g = ColoredCompleteGraph(3, 5, [2, 2, 4])
    assert g.colors_used() == (2, 4)


def test_induced_preserves_relative_order():
    rng = random.Random(2)
    g = random_coloring(rng, 12, 3)
    s = VertexSubset.of(12, [1, 4, 5, 9, 11])
    h = induced(g, s)
    vs = list(s.vertices())
    assert h.n == 5
    for j in range(5):
        for i in range(j):
            assert h.color_of(i, j) == g.color_of(vs[i], vs[j])
    with pytest.raises(EmptySubset):
        induced(g, VertexSubset(12, 0))


def test_substitute_blows_up_base_edges():
    base = ColoredCompleteGraph(2, 2, [2])
    part = complete_monochromatic(3, 2, 1)
    g = substitute(base, [part, part])
    assert g.n == 6
    for u in (0, 1, 2):
        for v in (3, 4, 5):
            assert g.color_of(u, v) == 2
    assert g.color_of(0, 1) == 1
    assert g.color_of(3, 5) == 1
    with pytest.raises(ArityMismatch):
        substitute(base, [part])
    big = complete_monochromatic(33, 1, 1)
    with pytest.raises(SizeLimitExceeded):
        substitute(base, [big, big])


def test_substitute_then_induce_recovers_parts():
    rng = random.Random(3)
    base = random_coloring(rng, 3, 3)
    parts = [random_coloring(rng, s, 3) for s in (2, 4, 3)]
    g = substitute(base, parts)
    offs = [0, 2, 6]
    for i, p in enumerate(parts):
        s = VertexSubset.of(g.n, range(offs[i], offs[i] + p.n))
        assert induced(g, s).edge_colors() == p.edge_colors()


def test_relabel_moves_colors_with_vertices():
    rng = random.Random(4)
    g = random_coloring(rng, 10, 3)
    perm = list(range(10))
    rng.shuffle(perm)
    h = relabel(g, perm)
    for v in range(10):
        for u in range(v):
            assert h.color_of(perm[u], perm[v]) == g.color_of(u, v)


def test_serialize_parse_round_trip():
    rng = random.Random(5)
    for _ in range(25):
        g = random_coloring(rng, rng.randint(1, 20), rng.randint(1, 6))
        assert parse(serialize(g)) == g


def test_serialize_layout():
    g = ColoredCompleteGraph(4, 3, [1, 2, 3, 1, 1, 2])
    assert serialize(g) == "4 3\n1\n2 3\n1 1 2\n"
    assert serialize(g, ("note",)).startswith("# note\n4 3\n")


def test_parse_accepts_comments_and_blank_lines():
    text = "# header\n\n4 2\n1\n# middle\n2 1\n1 1 2\n"
    g = parse(text)
    assert (g.n, g.k) == (4, 2)
    assert g.color_of(1, 2) == 1


def test_parse_rejects_malformed_input():
    good = "3 2\n1\n2 2\n"
    assert parse(good).n == 3
    cases = [
        good[:-1],              # missing trailing newline
        "3\n1\n2 2\n",          # short header
        "3 2\n1 1\n2 2\n",      # row too long
        "3 2\n1\n2\n",          # row too short
        "3 2\n1\n2 9\n",        # color out of range
        "3 2\n1\nx 2\n",        # junk token
        "3 2\n1\n2 2\n1\n",     # extra row
        "3 2\n1\n",             # missing row
        "0 2\n",                # bad order
    ]
    for text in cases:
        with pytest.raises(ColoringParseError):
            parse(text)


def test_parse_error_carries_line_number():
    try:
        parse("3 2\n1\n2 9\n")
    except ColoringParseError as exc:
        assert exc.line == 3
    else:
        raise AssertionError("expected a parse error")


def test_equality_and_hash():
    a = ColoredCompleteGraph(3, 2, [1, 2, 1])
    b = ColoredCompleteGraph(3, 2, [1, 2, 1])
    c = ColoredCompleteGraph(3, 3, [1, 2, 1])
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_bitgraph_basics():
    g = BitGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.degree(1) == 2
    assert g.min_degree() == 1
    assert g.edge_count() == 3
    assert sorted(g.edges()) == [(0, 1), (1, 2), (3, 4)]


def test_vertex_subset():
    s = VertexSubset.of(8, [5, 1, 3])
    assert list(s.vertices()) == [1, 3, 5]
    assert len(s) == 3
    assert 3 in s and 2 not in s
    with pytest.raises(ValueError):
        VertexSubset.of(4, [9])


def test_color_class_is_the_class_bitgraph():
    g = ColoredCompleteGraph(4, 2, [1, 2, 2, 1, 2, 1])
    h = g.color_class(2)
    assert type(h) is BitGraph
    assert h.masks == g.class_masks(2)
    assert h.has_edge(0, 2) and not h.has_edge(0, 1)
    with pytest.raises(ValueError):
        g.color_class(3)
