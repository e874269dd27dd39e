"""Colorings built to avoid specific structures, plus closed-form thresholds.

The extremal odd-cycle family doubles a monochromatic clique k-1 times, each
time joining two copies in a fresh color: order ell*2^k, no rainbow triangle,
and no monochromatic cycle of 2*ell+1 vertices in any color.  Each builder
returns the coloring together with a recipe describing what it claims, so a
detector sweep can re-check the claims from the artifact alone.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

from .coloring import (
    MAX_VERTICES,
    ColoredCompleteGraph,
    _substitute_store,
    complete_monochromatic,
    substitute,
)
from .detectors import RAINBOW_TRIANGLE, forbidden_structures
from .errors import BadParameters, SizeLimitExceeded


@dataclass(frozen=True)
class ConstructionRecipe:
    """What a built coloring is and which detector checks it must pass."""

    kind: str
    parameters: tuple[tuple[str, int], ...]
    expected_order: int
    expected_properties: tuple[dict, ...] = field(default_factory=tuple)

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameters": dict(self.parameters),
            "expected_order": self.expected_order,
            "expected_properties": list(self.expected_properties),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "ConstructionRecipe":
        d = json.loads(text)
        return cls(
            kind=d["kind"],
            parameters=tuple(d["parameters"].items()),
            expected_order=d["expected_order"],
            expected_properties=tuple(d["expected_properties"]),
        )


def check_recipe(g: ColoredCompleteGraph, recipe: ConstructionRecipe) -> list[str]:
    """Detector sweep over a recipe's claims; returns violation messages."""
    problems = []
    if g.n != recipe.expected_order:
        problems.append(f"order {g.n} != expected {recipe.expected_order}")
    rainbow, cycles = False, []
    for prop in recipe.expected_properties:
        if prop["forbid"] == "rainbow_triangle":
            rainbow = True
        elif prop["forbid"] == "mono_cycle":
            cycles.append((prop["length"], None if prop["colors"] == "all" else prop["colors"]))
        else:
            problems.append(f"unknown property {prop!r}")
    for w in forbidden_structures(g, rainbow, cycles):
        if w.kind == RAINBOW_TRIANGLE:
            problems.append(f"rainbow triangle {w.vertices}")
        else:
            problems.append(f"monochromatic C_{len(w.vertices)} in color {w.color}: {w.vertices}")
    return problems


def build_extremal_odd(ell: int, k: int) -> tuple[ColoredCompleteGraph, ConstructionRecipe]:
    """The doubled-clique coloring on ell*2^k vertices avoiding C_{2*ell+1}.

    Color 1 induces disjoint cliques of order 2*ell (too small for the cycle);
    every later color induces disjoint balanced complete bipartite graphs
    (no odd cycle at all).  Two colors per doubling step keep it free of
    rainbow triangles.
    """
    if ell < 2:
        raise BadParameters(f"ell {ell} must be at least 2")
    if k < 1:
        raise BadParameters(f"k {k} must be at least 1")
    order = ell * 2**k
    if order > MAX_VERTICES:
        raise SizeLimitExceeded(f"extremal coloring has {order} > {MAX_VERTICES} vertices")
    g = complete_monochromatic(2 * ell, 1, 1)
    for step in range(2, k + 1):
        join = complete_monochromatic(2, step, step)
        g = substitute(join, [g, g])
    recipe = ConstructionRecipe(
        kind="OddCycleExtremal",
        parameters=(("ell", ell), ("k", k)),
        expected_order=order,
        expected_properties=(
            {"forbid": "rainbow_triangle"},
            {"forbid": "mono_cycle", "length": 2 * ell + 1, "colors": "all"},
        ),
    )
    return g, recipe


def build_ramsey_cycle_lower(m: int, n: int) -> tuple[ColoredCompleteGraph, ConstructionRecipe]:
    """Two cliques of order n-1 in color 2, joined completely in color 1.

    For odd m the bipartite color-1 class has no C_m and the color-2
    components are one vertex short of C_n, so K_{2n-2} avoids both.
    """
    if m % 2 == 0 or m < 3:
        raise BadParameters(f"m {m} must be odd and at least 3")
    if n < m:
        raise BadParameters(f"n {n} must be at least m = {m}")
    order = 2 * n - 2
    if order > MAX_VERTICES:
        raise BadParameters(f"lower-bound coloring has {order} > {MAX_VERTICES} vertices")
    clique = complete_monochromatic(n - 1, 2, 2)
    join = complete_monochromatic(2, 2, 1)
    g = substitute(join, [clique, clique])
    recipe = ConstructionRecipe(
        kind="RamseyCycleLower",
        parameters=(("m", m), ("n", n)),
        expected_order=order,
        expected_properties=(
            {"forbid": "mono_cycle", "length": m, "colors": [1]},
            {"forbid": "mono_cycle", "length": n, "colors": [2]},
        ),
    )
    return g, recipe


def random_gallai(n: int, k: int, seed: int) -> ColoredCompleteGraph:
    """A seeded random rainbow-triangle-free coloring of K_n on palette 1..k.

    Recursive substitution: split the vertex range into 2..4 chunks, color the
    chunk pairs with at most two palette colors, recurse into each chunk.
    Every base uses at most two colors, so no rainbow triangle can appear.
    Identical (n, k, seed) always produce the identical coloring.
    """
    if n < 1 or n > MAX_VERTICES:
        raise BadParameters(f"order {n} outside 1..{MAX_VERTICES}")
    if k < 1:
        raise BadParameters(f"palette {k} must be at least 1")
    rng = random.Random(seed)

    def gen(size: int) -> list[int]:
        if size == 1:
            return []
        t = rng.randint(2, min(4, size))
        cuts = sorted(rng.sample(range(1, size), t - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        pair = (rng.randint(1, k), rng.randint(1, k))
        flat = [rng.choice(pair) for _ in range(t * (t - 1) // 2)]
        return _substitute_store(flat, sizes, [gen(s) for s in sizes])

    return ColoredCompleteGraph(n, k, gen(n))


def ramsey_formula(m: int, n: int) -> int | None:
    """Closed-form two-color cycle Ramsey value R(C_m, C_n), or None where undefined.

    Covers 3 <= m <= n with m odd except (3,3); both even with 4 <= m <= n
    except (4,4); and m even, n odd with 4 <= m < n.
    """
    if m % 2 == 1:
        if 3 <= m <= n and (m, n) != (3, 3):
            return 2 * n - 1
        return None
    if n % 2 == 0:
        if 4 <= m <= n and (m, n) != (4, 4):
            return n - 1 + m // 2
        return None
    if 4 <= m < n:
        return max(n - 1 + m // 2, 2 * m - 1)
    return None


def gallai_ramsey_formula(m: int, k: int) -> int | None:
    """Closed-form gr_k(K_3 : C_m), or None where no closed form is known.

    m = 3 is the Chung-Graham value: 5^(k/2) + 1 for even k and
    2 * 5^((k-1)/2) + 1 for odd k.  m = 2*ell + 1 with ell >= 2 is
    ell * 2^k + 1 (Gallai-Ramsey numbers of odd cycles; ell = 2, the value
    2^(k+1) + 1, is Fujita & Magnant 2011).  m = 4 with k >= 2 is k + 4
    (Faudree, Gould, Jacobson & Magnant 2010).
    """
    if k < 1:
        return None
    if m == 3:
        return 5 ** (k // 2) + 1 if k % 2 == 0 else 2 * 5 ** ((k - 1) // 2) + 1
    if m % 2 == 1 and m >= 5:
        return (m - 1) // 2 * 2**k + 1
    if m == 4 and k >= 2:
        return k + 4
    return None
