"""Core model: construction, indexing, surgery, serialization."""

from __future__ import annotations

import hashlib
import random
import timeit
import tracemalloc

import pytest

from gallai_lab import coloring
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
from gallai_lab.constructions import (
    build_extremal_odd,
    build_ramsey_cycle_lower,
    random_gallai,
)
from gallai_lab.errors import (
    ArityMismatch,
    ColoringParseError,
    ColorOutOfRange,
    EmptySubset,
    MissingPair,
    SizeLimitExceeded,
)

from oracles import class_rows_by_pairs, random_coloring


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


# Each maker builds a fresh graph on palette k, one way per constructor.
CLASS_ROW_SOURCES = {
    "parse": lambda k: parse(serialize(random_gallai(20, k, 3))),
    "substitute": lambda k: substitute(
        random_coloring(random.Random(k), 3, k),
        [random_gallai(5, k, 1), complete_monochromatic(1, k, k), random_gallai(4, k, 2)],
    ),
    "induced": lambda k: induced(random_gallai(30, k, 4), VertexSubset(30, 0x2AAA_F0F1)),
    "relabel": lambda k: relabel(random_gallai(12, k, 5), [(5 * i + 3) % 12 for i in range(12)]),
    "random_gallai": lambda k: random_gallai(64, k, 6),
    "build_extremal_odd": lambda k: build_extremal_odd(3, k)[0],
    "build_ramsey_cycle_lower": lambda k: build_ramsey_cycle_lower(5, 33)[0],
    "complete_monochromatic": lambda k: complete_monochromatic(7, k, k),
    "build": lambda k: build(3, k, {(0, 1): 1, (2, 1): k, (0, 2): 1}),
}


@pytest.mark.parametrize("first_read, args", [
    ("colors_used", ()), ("class_masks", (1,)), ("class_mask_row", (1, 0))])
@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("source", sorted(CLASS_ROW_SOURCES))
def test_class_rows_match_a_pair_by_pair_oracle(source, k, first_read, args):
    g = CLASS_ROW_SOURCES[source](k)
    expect = class_rows_by_pairs(g)
    getattr(g, first_read)(*args)  # a class read builds the rows; colors_used does not
    _assert_class_rows(g, expect)


def test_class_rows_of_2016_distinct_colors():
    g = ColoredCompleteGraph(64, 3000, range(1, 2017))
    expect = class_rows_by_pairs(g)
    assert len(expect) == 2016
    _assert_class_rows(g, expect)


def _store_of(n: int, colors: list[int], seed: int) -> list[int]:
    """A flat store on n vertices using every color in ``colors``, in seeded order."""
    pairs = n * (n - 1) // 2
    store = [colors[i % len(colors)] for i in range(pairs)] if colors else []
    random.Random(seed).shuffle(store)
    return store


@pytest.mark.parametrize("n, colors", [
    (1, []),
    (2, [5]),
    (3, [1, 2]),
    (64, [7, 300, 1000]),  # values past a byte, few of them: ranked codes
    (17, [256, 2**40]),  # a declared palette far too large to loop over
    (64, list(range(1, 256))),  # exactly 255 distinct colors, the most a byte holds
    (64, list(range(1000, 1255))),
])
def test_both_row_kernels_match_the_pair_oracle(n, colors):
    g = ColoredCompleteGraph(n, max(colors, default=1), _store_of(n, colors, n))
    expect = class_rows_by_pairs(g)
    used = g.colors_used()
    assert used == tuple(sorted(colors))
    for kernel in (coloring._class_rows_by_pairs, coloring._class_rows_by_bytes):
        assert kernel(n, g.edge_colors(), used) == expect
    _assert_class_rows(g, expect)


@pytest.mark.parametrize("n, colors, kernel", [
    # the bytes win while 3 * colors <= n - 11
    (64, 17, "_class_rows_by_bytes"),
    (64, 18, "_class_rows_by_pairs"),
    (41, 10, "_class_rows_by_bytes"),
    (41, 11, "_class_rows_by_pairs"),
    (14, 1, "_class_rows_by_bytes"),
    (14, 2, "_class_rows_by_pairs"),
    (13, 1, "_class_rows_by_pairs"),
    (1, 0, "_class_rows_by_pairs"),
    (64, 256, "_class_rows_by_pairs"),  # more colors than a byte holds
])
def test_row_build_picks_its_kernel_from_the_colors_and_the_order(monkeypatch, n, colors, kernel):
    called = []
    for name in ("_class_rows_by_bytes", "_class_rows_by_pairs"):
        real = getattr(coloring, name)
        monkeypatch.setattr(coloring, name, lambda *a, name=name, real=real: called.append(name) or real(*a))
    palette = [3 * c + 250 for c in range(colors)]
    g = ColoredCompleteGraph(n, max(palette, default=1), _store_of(n, palette, colors))
    expect = class_rows_by_pairs(g)
    _assert_class_rows(g, expect)
    assert called == [kernel]


def _assert_class_rows(g: ColoredCompleteGraph, expect: dict[int, list[int]]) -> None:
    """Check every color present and absent ones at both ends of the palette and between.

    Not every color of ``1..k``: a declared palette of 2**40 colors would never end.
    """
    assert g.colors_used() == tuple(sorted(expect))
    between = next((c for c in range((1 + g.k) // 2, g.k) if c not in expect), None)
    for c in sorted({*expect, 1, g.k} | ({between} if between else set())):
        rows = expect.get(c, [0] * g.n)
        assert g.class_masks(c) == rows
        assert [g.class_mask_row(c, v) for v in range(g.n)] == rows


def test_value_reads_never_build_class_rows():
    read = random_gallai(64, 4, 8)
    assert read.colors_used() == (1, 2, 3, 4)
    assert read._masks is None
    read.class_mask_row(1, 0)
    unread = ColoredCompleteGraph(64, 4, read.edge_colors())
    assert unread == read and read == unread
    assert hash(unread) == hash(read)
    assert serialize(unread, ("c",)) == serialize(read, ("c",))
    assert induced(unread, VertexSubset(64, 0xFF00)) == induced(read, VertexSubset(64, 0xFF00))
    assert unread._masks is None


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


def test_substitute_matches_a_per_pair_brute_force():
    rng = random.Random(8)
    for _ in range(200):
        base = random_coloring(rng, rng.randint(1, 5), rng.randint(1, 4))
        sizes = [rng.randint(1, 8) for _ in range(base.n)]
        parts = [random_coloring(rng, s, rng.randint(1, 12)) for s in sizes]
        g = substitute(base, parts)
        owner = [(i, x) for i, p in enumerate(parts) for x in range(p.n)]
        assert (g.n, g.k) == (len(owner), max([base.k] + [p.k for p in parts]))
        for v in range(g.n):
            for u in range(v):
                (i, x), (j, y) = owner[u], owner[v]
                want = parts[i].color_of(x, y) if i == j else base.color_of(i, j)
                assert g.color_of(u, v) == want


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


def test_serialize_writes_each_comment_line_as_a_comment():
    g = ColoredCompleteGraph(3, 2, [1, 2, 2])
    text = serialize(g, ("a\nb", "", "c\n"))
    assert text == "# a\n# b\n# \n# c\n# \n3 2\n1\n2 2\n"
    assert parse(text) == g


def test_serialize_two_digit_colors():
    g = ColoredCompleteGraph(4, 12, [9, 10, 11, 12, 9, 10])
    assert serialize(g) == "4 12\n9\n10 11\n12 9 10\n"
    rng = random.Random(9)
    for _ in range(10):
        n = rng.randint(1, 20)
        flat = [rng.randint(9, 12) for _ in range(n * (n - 1) // 2)]
        h = ColoredCompleteGraph(n, rng.randint(12, 40), flat)
        assert parse(serialize(h)) == h


def test_serialize_names_only_the_colors_present():
    # A table over the declared palette 1..k would take milliseconds here.
    g = complete_monochromatic(3, 10**5, 1)
    best = min(timeit.repeat(lambda: serialize(g), number=1, repeat=5))
    assert best < 0.002
    text = serialize(g)
    assert text == "3 100000\n1\n1 1\n"
    assert parse(text) == g


def test_mask_table_holds_only_the_colors_present():
    tracemalloc.start()
    try:
        g = complete_monochromatic(3, 10**6, 1)
        assert parse(serialize(g)) == g
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert g.class_masks(1) == [0b110, 0b101, 0b011]
    assert g.class_masks(10**6) == [0, 0, 0]
    assert g.class_mask_row(2, 1) == 0
    with pytest.raises(ValueError):
        g.class_masks(10**6 + 1)


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


def test_parse_reads_every_spelling_int_accepts():
    g = parse("4 300\n01\n+2 ２\n1_0 256 300\n")
    assert g.edge_colors() == (1, 2, 2, 10, 256, 300)
    assert parse("2 1000000000\n1000000000\n").edge_colors() == (10**9,)
    assert parse(serialize(g)) == g


def test_parse_error_carries_line_number():
    try:
        parse("3 2\n1\n2 9\n")
    except ColoringParseError as exc:
        assert exc.line == 3
    else:
        raise AssertionError("expected a parse error")


# sha256 of serialize() for 64-vertex hosts, as written by the per-pair
# serializer that the flat-store one replaced; the text format is a contract.
SERIALIZED_SHA256 = {
    ("extremal-odd", 2, 5): "516537b4302a2b511eb9264cc724c1966c923c04604e0ec044b3ddcde2dd5abf",
    ("extremal-odd", 4, 4): "ec85f563acb7f895dec93d9dbcdf048c160dce782fcf641ed15730278f1e6a06",
    ("ramsey-lower", 5, 33): "4c1eb65a6152a12763ca77fea2531d8ebb96359617a0d2779473d1bf9d134643",
    ("random", 3, 0): "8db1805f4b4e196faf3138a8d302cf8b5ce7ac0dfe5cadb7d85637233a7dadeb",
    ("random", 3, 1): "72faac3e424fe361e9fdd0b21d81b7d31ed8aad6c92f0f2faf672b6b47995420",
    ("random", 3, 7): "8a6a293d334e457093d9cd95e41f98046f2fe71f79e7ae2b41190de37ec415e9",
    ("random", 3, 12345): "26a32016b7fba13e85967f383f879dbc187962d3f5c526636f541f583d937f73",
    ("random", 4, 0): "dde25e8c2d666c97dab001edd11a611626629fee194c4a5df9f10defdfbf0fea",
    ("random", 4, 1): "baf5fd3e633c304f74b7f3ad31ba0051ae4950f45f80f8b4a4526b4752d12265",
    ("random", 4, 7): "827c56f639767bbe51c018271bdf2bb3a5a41698989df033f6405097c3b5e017",
    ("random", 4, 12345): "bbde5729a259264e158545922a21b6b8a51aa9c9b7b0af921b20fb1345177b68",
}
HOST_BUILDERS = {
    "extremal-odd": lambda ell, k: build_extremal_odd(ell, k)[0],
    "ramsey-lower": lambda m, n: build_ramsey_cycle_lower(m, n)[0],
    "random": lambda k, seed: random_gallai(64, k, seed),
}


@pytest.mark.parametrize("kind, a, b", sorted(SERIALIZED_SHA256))
def test_serialize_is_pinned_on_64_vertex_hosts(kind, a, b):
    g = HOST_BUILDERS[kind](a, b)
    text = serialize(g)
    assert hashlib.sha256(text.encode()).hexdigest() == SERIALIZED_SHA256[(kind, a, b)]
    assert parse(text) == g


@pytest.mark.parametrize("text, message, line", [
    ("4 3\n1\n2 3\n1 x 2\n", "entry 1 is not an integer", 4),
    ("4 3\n1\n2 3\n1 7 2\n", "color 7 on pair {1,3} outside palette 1..3", 4),
    ("4 3\n1\n2 3\n1 0 2\n", "color 0 on pair {1,3} outside palette 1..3", 4),
    # the first bad entry in row order wins, whatever its kind
    ("4 3\n1\n2 3\n1 9 x\n", "color 9 on pair {1,3} outside palette 1..3", 4),
    ("4 3\n1\n2 3\ny 9 2\n", "entry 0 is not an integer", 4),
    # comments and blank lines still count toward the line number
    ("# c\n4 3\n1\n\n2 3\n1 2 4\n", "color 4 on pair {2,3} outside palette 1..3", 6),
    # a non-integer after a valid row; bad colors on two lines name the first
    ("4 3\n1\n2 3\n1 2 1.0\n", "entry 2 is not an integer", 4),
    ("4 3\n1\n2 5\n1 2 0\n", "color 5 on pair {1,2} outside palette 1..3", 3),
    ("4 3\n1\n2 3\n9 2 7\n", "color 9 on pair {0,3} outside palette 1..3", 4),
    # the value int() reads is the one named, in any spelling it accepts
    ("3 2\n1\n1 03\n", "color 3 on pair {1,2} outside palette 1..2", 3),
    ("3 2\n1\n1 ３\n", "color 3 on pair {1,2} outside palette 1..2", 3),
    ("3 9\n1\n1 1_0\n", "color 10 on pair {1,2} outside palette 1..9", 3),
    ("3 255\n1\n256 1\n", "color 256 on pair {0,2} outside palette 1..255", 3),
    # a bad entry comes before a later row's shape error
    ("4 3\n1\n2 x\n1 1\n", "entry 1 is not an integer", 3),
    ("3 3\n1\n2 4\n1 1 1\n", "color 4 on pair {1,2} outside palette 1..3", 3),
    ("4 3\n1\n1 4\n", "color 4 on pair {1,2} outside palette 1..3", 3),
    # and a shape error before any bad entry is named as before
    ("4 3\n1\n2 2 2\n1 x 1\n", "expected 2 entries, got 3", 3),
    ("3 3\n1\n2 2\n1 x\n", "data after the last expected row", 4),
])
def test_parse_error_names_the_first_bad_entry(text, message, line):
    with pytest.raises(ColoringParseError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


@pytest.mark.parametrize("n, k, flat, pair, color", [
    (3, 2, [1, 3, 0], (0, 2), 3),
    (4, 3, [1, 2, 3, 4, 0, 5], (0, 3), 4),
    (5, 2, [1, 1, 1, 1, 1, 1, 0, 9, 1, 1], (0, 4), 0),
    (4, 3, [3, 3, 3, 3, 3, -2], (2, 3), -2),
])
def test_constructor_names_the_first_bad_entry(n, k, flat, pair, color):
    with pytest.raises(ColorOutOfRange) as info:
        ColoredCompleteGraph(n, k, flat)
    assert info.value.pair == pair
    assert info.value.color == color
    assert str(info.value) == f"color {color} on pair {{{pair[0]},{pair[1]}}} outside palette 1..{k}"


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
