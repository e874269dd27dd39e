"""Partition structure of rainbow-triangle-free colorings.

A coloring with no rainbow triangle always splits into at least two parts so
that each pair of parts is joined monochromatically and at most two colors
appear between parts (Gallai 1967; Gyarfas & Simonyi 2004).
``gallai_partition`` takes the root split that the rainbow scan
(``detectors._first_rainbow``) finds on its way: the components that the
colors outside a between-color set span, for the first set, among those
meeting vertex 0, that splits the vertex set.  By the split lemma in
``detectors._gallai_blocks`` no other set needs trying: a single color that
splits is the only one, and every pair that splits holds it and gives as
many blocks or more; with no single color, only one pair splits.  With no
rainbow triangle any two blocks are joined in one color of the set, so the
split is valid by construction; it is validated once, as a safety net.

With ``coarsest=True`` twin blocks are then merged (``_merge_twins``): two
blocks joined in one color that every other block sees in one color too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .coloring import (
    BitGraph,
    ColoredCompleteGraph,
    VertexSubset,
    induced,
    pair_index,
    relabel,
    substitute,
)
from .detectors import MONO_CYCLE, RAINBOW_TRIANGLE, Witness, _first_rainbow, dirac_hamiltonian
from .errors import HypothesisViolated, InvalidPartition, NotGallai


@dataclass(frozen=True)
class GallaiPartition:
    """Parts plus the declared between-part colors; parts are host subsets."""

    n: int
    parts: tuple[VertexSubset, ...]
    between_colors: tuple[int, ...]
    pair_colors: tuple[tuple[int, int, int], ...]  # (i, j, color) for i < j

    def pair_color(self, i: int, j: int) -> int:
        if i > j:
            i, j = j, i
        for a, b, c in self.pair_colors:
            if (a, b) == (i, j):
                return c
        raise KeyError((i, j))

    def to_json_dict(self) -> dict:
        return {
            "parts": [p.vertices() for p in self.parts],
            "between_colors": list(self.between_colors),
            "pair_colors": [list(t) for t in self.pair_colors],
        }


@dataclass(frozen=True)
class PartitionReport:
    ok: bool
    reason: str | None = None
    pair: tuple[int, int] | None = None
    edge: tuple[int, int] | None = None


def validate_partition(g: ColoredCompleteGraph, p: GallaiPartition) -> PartitionReport:
    """Check a partition claim against the host; reports the first violation."""
    if p.n != g.n:
        return PartitionReport(False, f"partition host order {p.n} != graph order {g.n}")
    if not p.parts:
        return PartitionReport(False, "no parts")
    seen = 0
    for idx, part in enumerate(p.parts):
        if part.n != g.n:
            return PartitionReport(False, f"part {idx} lives on a different host")
        if part.mask == 0:
            return PartitionReport(False, f"part {idx} is empty")
        if part.mask & seen:
            return PartitionReport(False, f"part {idx} overlaps an earlier part")
        seen |= part.mask
    if seen != (1 << g.n) - 1:
        missing = ((1 << g.n) - 1) & ~seen
        v = (missing & -missing).bit_length() - 1
        return PartitionReport(False, f"vertex {v} is in no part")
    if g.n >= 2 and len(p.parts) < 2:
        return PartitionReport(False, "fewer than 2 parts")
    if len(p.between_colors) > 2:
        return PartitionReport(False, f"{len(p.between_colors)} between-part colors, at most 2 allowed")
    declared = {}
    for i, j, c in p.pair_colors:
        if not (0 <= i < j < len(p.parts)):
            return PartitionReport(False, f"pair ({i},{j}) is not a valid part pair")
        if (i, j) in declared:
            return PartitionReport(False, f"pair ({i},{j}) is declared twice", pair=(i, j))
        declared[(i, j)] = c
        if c not in p.between_colors:
            return PartitionReport(
                False, f"pair ({i},{j}) colored {c}, not among between-colors", pair=(i, j)
            )
    rows = g._rows()
    absent = [0] * g.n
    members = [part.vertices() for part in p.parts]
    for j in range(1, len(p.parts)):
        mask = p.parts[j].mask
        for i in range(j):
            if (i, j) not in declared:
                return PartitionReport(False, f"pair ({i},{j}) has no declared color", pair=(i, j))
            c = declared[(i, j)]
            row = rows.get(c, absent)
            for u in members[i]:
                bad = mask & ~row[u]
                if bad:
                    v = (bad & -bad).bit_length() - 1
                    return PartitionReport(
                        False,
                        f"edge {{{u},{v}}} has color {g.color_of(u, v)}, pair ({i},{j}) declares {c}",
                        pair=(i, j),
                        edge=(u, v),
                    )
    return PartitionReport(True)


# -- computing a partition -----------------------------------------------------


def _block_pair_color(colors: Sequence[int], bi: int, bj: int) -> int:
    """The color between the least vertices of two disjoint blocks.

    ``colors`` is the host's flat triangular store (``edge_colors()``).
    """
    u = (bi & -bi).bit_length() - 1
    v = (bj & -bj).bit_length() - 1
    return colors[pair_index(u, v)]


def _merge_twins(first: Sequence[int], blocks: list[int]) -> list[int]:
    """Merge twin blocks, a round at a time, until none are left (never below 2 parts).

    Blocks come sorted by least vertex and stay so; they are joined pairwise
    in the split's between-colors, and ``first`` holds the adjacency rows of
    one of them.  A block's row of block-pair colors is then the bitset of
    the least vertices it sees in that color.  Blocks i and j joined in
    color c are twins, every other block seeing both in one color, exactly
    when their rows agree once each reads c at its own place: with its own
    bit set for the color of ``first``, clear for the other.  So each block
    has one key per color, and the blocks sharing a key are a twin class.

    Twinhood is an equivalence (i ~ j and j ~ k give that i, j and k are
    joined pairwise in one color), and merging a twin pair keeps every
    other twin pair a twin pair, the merged block standing for its members.
    So each round merges every class at once, and the rounds end at the
    blocks that merging one twin pair at a time reaches, in any order, as
    long as no merge takes three twins to two.  That needs a class holding
    every block, which only a single between-color gives: with two, both
    colors connect the blocks and stay connected as modules merge.  Such a
    class keeps its last block apart, as merging the first pair over and
    over does.  A round costs O(t) bitset operations on t blocks.
    """
    while len(blocks) > 2:
        lows = 0
        for b in blocks:
            lows |= b & -b
        keys = []
        classes: dict[int, int] = {}
        for b in blocks:
            low = b & -b
            row = first[low.bit_length() - 1] & lows
            keys.append((row | low, row))
            for key in keys[-1]:
                classes[key] = classes.get(key, 0) | b
        # a block's class is the larger of its two keys' unions: the other is the block
        merged = list(dict.fromkeys(max(classes[k], classes[o]) for k, o in keys))
        if len(merged) == 1:
            return [merged[0] ^ blocks[-1], blocks[-1]]
        if len(merged) == len(blocks):
            break
        blocks = merged
    return blocks


def _assemble(g: ColoredCompleteGraph, colors: Sequence[int], blocks: list[int]) -> GallaiPartition:
    ordered = sorted(blocks, key=lambda m: (-m.bit_count(), (m & -m)))
    pair_colors = [
        (i, j, _block_pair_color(colors, ordered[i], ordered[j]))
        for j in range(1, len(ordered))
        for i in range(j)
    ]
    used = sorted({c for _, _, c in pair_colors})
    parts = tuple(VertexSubset(g.n, m) for m in ordered)
    return GallaiPartition(g.n, parts, tuple(used), tuple(pair_colors))


def gallai_partition(g: ColoredCompleteGraph, coarsest: bool = False) -> GallaiPartition:
    """A valid partition of a rainbow-triangle-free coloring.

    The blocks of the first between-color set, among the colors meeting
    vertex 0, that splits the vertex set: single colors first, then pairs.
    That is the root split of the rainbow scan (``detectors._first_rainbow``),
    read from the one call that also clears the coloring.  By the split
    lemma in ``detectors._gallai_blocks`` no other set splits it into fewer
    blocks.  With ``coarsest=True`` twin blocks are merged until no further
    pair of returned parts can be merged without breaking validity.

    That is a local fixpoint, not always the fewest parts.  A single
    between-color gives two parts, the fewest.  A pair gives blocks whose
    two-colored quotient both colors connect; every part then lies inside
    one of the quotient's maximal modules, and those modules are the fewest
    parts.  Twin merging reaches a module exactly when twins merge its
    blocks down to one, and it stops early on a module whose blocks merge
    down to a twin-free quotient, such as a P4 in either color.
    """
    if g.n < 2:
        raise ValueError(f"partition needs at least 2 vertices, got {g.n}")
    rows = g._rows()
    colors = g.edge_colors()
    found, blocks = _first_rainbow(rows, colors, (1 << g.n) - 1)
    if found is not None:
        raise NotGallai(Witness(RAINBOW_TRIANGLE, found))
    if coarsest:
        blocks = _merge_twins(rows[_block_pair_color(colors, blocks[0], blocks[1])], blocks)
    p = _assemble(g, colors, blocks)
    rep = validate_partition(g, p)
    if not rep.ok:
        raise InvalidPartition(rep)
    return p


# -- derived views --------------------------------------------------------------


def reduced_graph(g: ColoredCompleteGraph, p: GallaiPartition) -> ColoredCompleteGraph:
    """One vertex per part, pair colors from the partition (validated first)."""
    rep = validate_partition(g, p)
    if not rep.ok:
        raise InvalidPartition(rep)
    t = len(p.parts)
    declared = {(i, j): c for i, j, c in p.pair_colors}
    flat = [declared[i, j] for j in range(1, t) for i in range(j)]
    return ColoredCompleteGraph(t, g.k, flat)


def reconstruct(g: ColoredCompleteGraph, p: GallaiPartition) -> ColoredCompleteGraph:
    """Rebuild the host from its reduced graph and induced parts (bit-exact).

    Substitution concatenates parts in order, so the result is relabeled back
    through the concatenation order before returning.
    """
    blown = substitute(reduced_graph(g, p), [induced(g, part) for part in p.parts])
    order = [v for part in p.parts for v in part.vertices()]
    return relabel(blown, order)


# -- recoloring and between-part cycles ------------------------------------------


def recolor_small_parts(
    g: ColoredCompleteGraph,
    a_set: VertexSubset,
    b_sets: Sequence[VertexSubset],
    k: int,
    m: int,
) -> ColoredCompleteGraph:
    """Recolor, inside each small set B_i, every edge not colored in 1..k-1 to k.

    Hypotheses (all checked): A and the B_i partition the vertex set, every
    A-to-B_i edge has color i, |B_i| <= m-1, edges between different B sets
    use one of their two indices, and A's internal edges stay within 1..k.
    Under them the result is a k-colored graph that gains no rainbow triangle
    and no monochromatic m-cycle it did not already have.
    """
    if k < 1:
        raise ValueError(f"target palette {k} must be at least 1")
    if m < 2:
        raise ValueError(f"forbidden cycle order {m} must be at least 2")
    sets = [a_set, *b_sets]
    if len(b_sets) != k - 1:
        raise HypothesisViolated(f"expected {k - 1} small sets for palette {k}, got {len(b_sets)}")
    for s in sets:
        if s.n != g.n:
            raise HypothesisViolated("vertex set lives on a different host")
    cover = 0
    for s in sets:
        overlap = s.mask & cover
        if overlap:
            v = (overlap & -overlap).bit_length() - 1
            raise HypothesisViolated(f"vertex {v} appears in two of the sets")
        cover |= s.mask
    if cover != (1 << g.n) - 1:
        missing = ((1 << g.n) - 1) & ~cover
        v = (missing & -missing).bit_length() - 1
        raise HypothesisViolated(f"vertex {v} is in none of the sets")
    for i, b in enumerate(b_sets, start=1):
        if len(b) > m - 1:
            raise HypothesisViolated(f"set B_{i} has {len(b)} vertices, at most {m - 1} allowed")
    for i, b in enumerate(b_sets, start=1):
        for u in a_set.vertices():
            bad = b.mask & ~g.class_mask_row(i, u)
            if bad:
                v = (bad & -bad).bit_length() - 1
                raise HypothesisViolated(
                    f"edge {{{u},{v}}} between A and B_{i} has color {g.color_of(u, v)}, expected {i}"
                )
    for i in range(1, k):
        for j in range(i + 1, k):
            for u in b_sets[i - 1].vertices():
                ok = g.class_mask_row(i, u) | g.class_mask_row(j, u)
                bad = b_sets[j - 1].mask & ~ok
                if bad:
                    v = (bad & -bad).bit_length() - 1
                    raise HypothesisViolated(
                        f"edge {{{u},{v}}} between B_{i} and B_{j} has color {g.color_of(u, v)},"
                        f" expected {i} or {j}"
                    )
    for u in a_set.vertices():
        for v in a_set.vertices():
            if u < v and g.color_of(u, v) > k:
                raise HypothesisViolated(
                    f"edge {{{u},{v}}} inside A has color {g.color_of(u, v)} > {k}"
                )
    flat = list(g.edge_colors())
    for b in b_sets:
        vs = b.vertices()
        for x in range(1, len(vs)):
            for y in range(x):
                u, v = vs[y], vs[x]
                idx = v * (v - 1) // 2 + u
                if not 1 <= flat[idx] <= k - 1:
                    flat[idx] = k
    return ColoredCompleteGraph(g.n, k, flat)


def between_parts_cycle(g: ColoredCompleteGraph, p: GallaiPartition, ell: int) -> Witness:
    """An odd cycle C_{2*ell+1} in the single between-color of a partition.

    Requires (checked): the partition is valid with exactly one between-part
    color, every part has at most ell vertices, and the host has at least
    2*ell+1 vertices.  The between-color class on the lowest 2*ell+1 vertices
    then meets the minimum-degree bound, so a Hamilton cycle of that slice is
    the wanted odd cycle.
    """
    if ell < 1:
        raise ValueError(f"ell {ell} must be at least 1")
    rep = validate_partition(g, p)
    if not rep.ok:
        raise HypothesisViolated(f"invalid partition: {rep.reason}")
    order = 2 * ell + 1
    if g.n < order:
        raise HypothesisViolated(f"host has {g.n} vertices, need at least {order}")
    if len(p.between_colors) != 1:
        raise HypothesisViolated(
            f"between-part colors {list(p.between_colors)}, exactly one required"
        )
    for idx, part in enumerate(p.parts):
        if len(part) > ell:
            raise HypothesisViolated(f"part {idx} has {len(part)} vertices, at most {ell} allowed")
    color = p.between_colors[0]
    sel_mask = (1 << order) - 1
    rows = g.class_masks(color)
    h = BitGraph(order, [rows[v] & sel_mask for v in range(order)])
    ham = dirac_hamiltonian(h)
    return Witness(MONO_CYCLE, ham.vertices, color)
