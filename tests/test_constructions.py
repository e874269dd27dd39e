"""Builders, recipes, the random generator, and the closed-form values."""

from __future__ import annotations

import random

import pytest

from gallai_lab.cli import main
from gallai_lab.coloring import (
    MAX_VERTICES,
    VertexSubset,
    complete_monochromatic,
    induced,
    parse,
    serialize,
)
from gallai_lab.constructions import (
    ConstructionRecipe,
    build_extremal_odd,
    build_ramsey_cycle_lower,
    check_recipe,
    gallai_ramsey_formula,
    ramsey_formula,
    random_gallai,
)
from gallai_lab.detectors import find_mono_cycle, find_rainbow_triangle
from gallai_lab.errors import BadParameters, SizeLimitExceeded

from oracles import cycle_exists_dp, rainbow_triangles_bruteforce, random_gallai_reference


# -- doubled construction ------------------------------------------------------------


def test_extremal_odd_shape():
    g, recipe = build_extremal_odd(3, 2)
    assert g.n == 12 and g.k == 2
    assert recipe.expected_order == 12
    # step structure: two color-2 halves of two color-1 halves
    for u in range(6):
        for v in range(6, 12):
            assert g.color_of(u, v) == 2
    assert g.color_of(0, 3) == 1
    assert g.color_of(0, 1) == 1


def test_extremal_odd_is_clean_for_its_cycle():
    for ell, k in [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2)]:
        g, recipe = build_extremal_odd(ell, k)
        assert g.n == ell * 2**k
        assert check_recipe(g, recipe) == []
        assert not rainbow_triangles_bruteforce(g)
        m = 2 * ell + 1
        for c in range(1, k + 1):
            assert find_mono_cycle(g, c, m) is None
            if g.n <= 20:
                assert not cycle_exists_dp(g.class_masks(c), g.n, m)


def test_extremal_odd_has_even_cycles_just_below():
    # each color class is a union of complete parts of order 2*ell: C_{2ell} lives there
    ell, k = 3, 2
    g, _ = build_extremal_odd(ell, k)
    assert find_mono_cycle(g, 1, 2 * ell) is not None


def test_extremal_odd_halves_repeat_the_previous_step():
    for k in (2, 3):
        g, _ = build_extremal_odd(3, k)
        prev, _ = build_extremal_odd(3, k - 1)
        half = g.n // 2
        lo = induced(g, VertexSubset.of(g.n, range(half)))
        hi = induced(g, VertexSubset.of(g.n, range(half, g.n)))
        assert lo.edge_colors() == prev.edge_colors()
        assert hi.edge_colors() == prev.edge_colors()


def test_extremal_odd_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        build_extremal_odd(1, 2)
    with pytest.raises(BadParameters):
        build_extremal_odd(3, 0)
    with pytest.raises(SizeLimitExceeded):
        build_extremal_odd(5, 4)  # 5 * 16 = 80 > 64


# -- two-block Ramsey lower construction ----------------------------------------------


def test_ramsey_cycle_lower_shape_and_cleanliness():
    for m, n in [(3, 3), (3, 6), (5, 5), (5, 7), (7, 8)]:
        g, recipe = build_ramsey_cycle_lower(m, n)
        assert g.n == 2 * n - 2
        assert check_recipe(g, recipe) == []
        assert find_mono_cycle(g, 1, m) is None
        assert find_mono_cycle(g, 2, n) is None


def test_ramsey_cycle_lower_rejects_bad_parameters():
    with pytest.raises(BadParameters):
        build_ramsey_cycle_lower(4, 6)  # m must be odd
    with pytest.raises(BadParameters):
        build_ramsey_cycle_lower(1, 5)
    with pytest.raises(BadParameters):
        build_ramsey_cycle_lower(7, 5)  # needs n >= m
    with pytest.raises(BadParameters):
        build_ramsey_cycle_lower(5, 40)  # 2n - 2 > 64


# -- recipes ----------------------------------------------------------------------------


def test_recipe_json_round_trip(capsys):
    # The random recipe keeps the CLI's parameter order (n, k, seed), which is
    # not sorted: reading it back must not reorder it.
    assert main(["gen", "random", "--order", "5", "--k", "2", "--seed", "3"]) == 0
    header = capsys.readouterr().out.splitlines()[0]
    assert header.startswith("# recipe: ")
    texts = [
        build_extremal_odd(3, 2)[1].to_json(),
        build_ramsey_cycle_lower(5, 5)[1].to_json(),
        header[len("# recipe: "):],
    ]
    for text in texts:
        recipe = ConstructionRecipe.from_json(text)
        assert recipe.to_json() == text
        assert ConstructionRecipe.from_json(recipe.to_json()) == recipe
    assert recipe.parameters == (("n", 5), ("k", 2), ("seed", 3))


def test_check_recipe_reports_violations():
    g, recipe = build_extremal_odd(2, 2)
    wrong_order = ConstructionRecipe(
        kind=recipe.kind,
        parameters=recipe.parameters,
        expected_order=g.n + 1,
        expected_properties=recipe.expected_properties,
    )
    assert check_recipe(g, wrong_order)
    impossible = ConstructionRecipe(
        kind=recipe.kind,
        parameters=recipe.parameters,
        expected_order=g.n,
        expected_properties=({"forbid": "mono_cycle", "length": 4, "colors": [1]},),
    )
    assert check_recipe(g, impossible)  # C_4 in color 1 does exist


def test_check_recipe_rejects_a_bad_cycle_order_on_any_host():
    # one vertex holds no color at all; the order is still checked
    for n in (1, 2):
        recipe = ConstructionRecipe(
            kind="Tampered",
            parameters=(),
            expected_order=n,
            expected_properties=({"forbid": "mono_cycle", "length": 2, "colors": "all"},),
        )
        with pytest.raises(ValueError, match="cycle order 2 must be at least 3"):
            check_recipe(complete_monochromatic(n, 1, 1), recipe)


# -- random generator --------------------------------------------------------------------


def test_random_gallai_is_rainbow_free_and_deterministic():
    rng = random.Random(20)
    for _ in range(80):
        n = rng.randint(1, 28)
        k = rng.randint(1, 5)
        seed = rng.randrange(10**9)
        g = random_gallai(n, k, seed)
        assert g.n == n and g.k == k
        assert find_rainbow_triangle(g) is None
        assert random_gallai(n, k, seed) == g


def test_random_gallai_matches_the_per_level_reference():
    for n in range(1, MAX_VERTICES + 1):
        for k in range(1, 6):
            for seed in (0, n * 7919 + k, 2**32 - n):
                assert random_gallai(n, k, seed) == random_gallai_reference(n, k, seed)


def test_random_gallai_varies_with_seed():
    outs = {random_gallai(10, 3, s).edge_colors() for s in range(12)}
    assert len(outs) > 6


def test_random_gallai_serialization_is_byte_stable():
    g = random_gallai(17, 4, 123)
    assert serialize(g) == serialize(parse(serialize(g)))
    with pytest.raises(BadParameters):
        random_gallai(0, 2, 1)
    with pytest.raises(BadParameters):
        random_gallai(5, 0, 1)


# -- closed forms -----------------------------------------------------------------------


def test_ramsey_formula_known_values():
    # odd target: 2n - 1
    assert ramsey_formula(5, 5) == 9
    assert ramsey_formula(7, 7) == 13
    assert ramsey_formula(5, 9) == 17
    # both even: n - 1 + m/2
    assert ramsey_formula(6, 6) == 8
    assert ramsey_formula(4, 6) == 7
    assert ramsey_formula(6, 8) == 10
    # even m, odd n: max(n - 1 + m/2, 2m - 1)
    assert ramsey_formula(4, 5) == 7
    assert ramsey_formula(4, 7) == 8
    assert ramsey_formula(6, 7) == 11
    assert ramsey_formula(10, 11) == 19


def test_gallai_ramsey_formula_values():
    # Chung-Graham for triangles, ell * 2^k + 1 for C_{2 ell + 1} with ell >= 2,
    # k + 4 for C_4 with k >= 2
    assert [gallai_ramsey_formula(3, k) for k in (1, 2, 3)] == [3, 6, 11]
    assert [gallai_ramsey_formula(5, k) for k in (1, 2, 3, 4)] == [5, 9, 17, 33]
    assert [gallai_ramsey_formula(7, k) for k in (1, 2, 3)] == [7, 13, 25]
    assert [gallai_ramsey_formula(9, k) for k in (1, 2, 3)] == [9, 17, 33]
    assert [gallai_ramsey_formula(4, k) for k in (2, 3, 4)] == [6, 7, 8]
    assert gallai_ramsey_formula(4, 1) is None
    # agrees with the two-color cycle Ramsey value where both apply
    assert gallai_ramsey_formula(7, 2) == ramsey_formula(7, 7)
    assert gallai_ramsey_formula(5, 2) == ramsey_formula(5, 5)
    assert gallai_ramsey_formula(4, 2) == 6  # R(C_4, C_4), which ramsey_formula leaves out
    for m in (6, 8):
        assert gallai_ramsey_formula(m, 2) is None
    assert gallai_ramsey_formula(7, 0) is None


def test_ramsey_formula_exceptions_and_range():
    assert ramsey_formula(3, 3) is None
    assert ramsey_formula(4, 4) is None
    assert ramsey_formula(7, 5) is None   # needs m <= n
    assert ramsey_formula(3, 6) == 11    # odd first cycle is fine down to 3
    assert ramsey_formula(2, 5) is None
    assert ramsey_formula(4, 3) is None
