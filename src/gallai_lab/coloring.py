"""Edge colorings of complete graphs: the core data model.

A coloring assigns one color id (1-based, dense, 0 reserved for "absent") to
every unordered pair of vertices of K_n.  Values are immutable after
construction; every transformation returns a new graph.  The authoritative
store is a flat upper-triangular tuple; per-color adjacency bitsets are
built from it on the first read of a color class, kept, and shared by all
detectors, so a graph that is only compared, hashed, serialized or induced
never builds them.  The build works on bytes when the colors present are
few against the order: the store, one byte per pair, is laid out as a
vertex-by-vertex matrix (``_class_rows_by_bytes``), and each color's rows
come from one translation of it to binary digits and one ``int(., 2)``;
graphs with many colors keep the loop over pairs.  The bitset fast path
caps the order at 64 vertices.
``substitute`` and ``random_gallai`` (in ``constructions``) share one
store-level kernel, ``_substitute_store``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import (
    ArityMismatch,
    ColoringParseError,
    ColorOutOfRange,
    EmptySubset,
    MissingPair,
    SizeLimitExceeded,
)

MAX_VERTICES = 64


def pair_index(u: int, v: int) -> int:
    """Index of the unordered pair {u,v} in the flat triangular store."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def bits(mask: int) -> Iterator[int]:
    """Yield set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def row_union(masks: Sequence[int], group: int) -> int:
    """Union of the adjacency rows of the vertices in ``group``."""
    out = 0
    while group:
        low = group & -group
        out |= masks[low.bit_length() - 1]
        group ^= low
    return out


def closure(masks: Sequence[int], seed: int, allowed: int) -> int:
    """Vertices reachable from the seed set by edges staying inside ``allowed``."""
    reach = seed & allowed
    frontier = reach
    while frontier:
        nxt = row_union(masks, frontier) & allowed & ~reach
        reach |= nxt
        frontier = nxt
    return reach


class BitGraph:
    """Simple undirected graph on vertices 0..n-1 with bitmask adjacency rows."""

    __slots__ = ("n", "masks")

    def __init__(self, n: int, masks: Sequence[int] | None = None):
        if n < 0 or n > MAX_VERTICES:
            raise SizeLimitExceeded(f"graph order {n} outside 0..{MAX_VERTICES}")
        self.n = n
        self.masks: list[int] = list(masks) if masks is not None else [0] * n

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "BitGraph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        self.masks[u] |= 1 << v
        self.masks[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.masks[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.masks[v].bit_count()

    def min_degree(self) -> int:
        return min((self.degree(v) for v in range(self.n)), default=0)

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        for v in range(self.n):
            for u in bits(self.masks[v] & ((1 << v) - 1)):
                yield (u, v)

    def __repr__(self) -> str:
        return f"BitGraph(n={self.n}, edges={self.edge_count()})"


@dataclass(frozen=True)
class VertexSubset:
    """A subset of 0..n-1 of some host graph, stored as a bitmask."""

    n: int
    mask: int

    def __post_init__(self):
        if self.n < 0 or self.n > MAX_VERTICES:
            raise SizeLimitExceeded(f"host order {self.n} outside 0..{MAX_VERTICES}")
        if self.mask < 0 or self.mask >> self.n:
            raise ValueError(f"mask {self.mask:#x} has bits outside 0..{self.n - 1}")

    @classmethod
    def of(cls, n: int, members: Iterable[int]) -> "VertexSubset":
        mask = 0
        for v in members:
            if not 0 <= v < n:
                raise ValueError(f"vertex {v} outside 0..{n - 1}")
            mask |= 1 << v
        return cls(n, mask)

    def vertices(self) -> list[int]:
        return list(bits(self.mask))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.mask >> v & 1)


class ColoredCompleteGraph:
    """Immutable edge coloring of K_n with colors drawn from 1..k."""

    __slots__ = ("n", "k", "_colors", "_used", "_masks")

    def __init__(self, n: int, k: int, colors: Sequence[int]):
        if n < 1:
            raise ValueError(f"graph order {n} must be at least 1")
        if n > MAX_VERTICES:
            raise SizeLimitExceeded(f"graph order {n} exceeds {MAX_VERTICES}")
        if k < 1:
            raise ValueError(f"palette size {k} must be at least 1")
        expected = n * (n - 1) // 2
        if len(colors) != expected:
            raise ValueError(f"expected {expected} edge colors, got {len(colors)}")
        store = tuple(colors)
        used = tuple(sorted(set(store)))
        if used and not (1 <= used[0] and used[-1] <= k):
            # Locate the first bad entry in store order for the error.
            for v in range(1, n):
                for u, c in enumerate(store[v * (v - 1) // 2 : v * (v + 1) // 2]):
                    if not 1 <= c <= k:
                        raise ColorOutOfRange(u, v, c, k)
        self.n = n
        self.k = k
        self._colors = store
        self._used = used
        self._masks: dict[int, list[int]] | None = None  # built by _rows on first use

    def _rows(self) -> dict[int, list[int]]:
        """Per-color adjacency bitsets, built on the first read of a class and kept.

        The triangular tuple stays authoritative; these exist so detectors
        never rescan it.  Only the colors present get rows: the declared
        palette is unbounded.
        """
        masks = self._masks
        if masks is None:
            n, store, used = self.n, self._colors, self._used
            # The pair loop takes about 0.15 us a pair, the byte build about
            # 0.7 us a vertex and 0.2 us per vertex and color (CPython 3.11),
            # so the bytes win while 3 * colors <= n - 11: up to 17 colors
            # at 64 vertices, none below 14.
            if 3 * len(used) > n - 11:
                masks = _class_rows_by_pairs(n, store, used)
            else:
                masks = _class_rows_by_bytes(n, store, used)
            self._masks = masks
        return masks

    # -- reads ------------------------------------------------------------

    def color_of(self, u: int, v: int) -> int:
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"not an edge of K_{self.n}: {{{u},{v}}}")
        return self._colors[pair_index(u, v)]

    def colors_used(self) -> tuple[int, ...]:
        return self._used

    def class_masks(self, color: int) -> list[int]:
        """Adjacency bitsets of one color class (a copy; rows are ints)."""
        if not 1 <= color <= self.k:
            raise ValueError(f"color {color} outside palette 1..{self.k}")
        rows = self._rows().get(color)
        return list(rows) if rows else [0] * self.n

    def class_mask_row(self, color: int, v: int) -> int:
        rows = self._rows().get(color)
        return rows[v] if rows else 0

    def color_class(self, color: int) -> BitGraph:
        """The simple graph formed by one color's edges."""
        return BitGraph(self.n, self.class_masks(color))

    def edge_colors(self) -> tuple[int, ...]:
        return self._colors

    # -- value semantics ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColoredCompleteGraph):
            return NotImplemented
        return (self.n, self.k, self._colors) == (other.n, other.k, other._colors)

    def __hash__(self) -> int:
        return hash((self.n, self.k, self._colors))

    def __repr__(self) -> str:
        return f"ColoredCompleteGraph(n={self.n}, k={self.k})"


# -- class rows --------------------------------------------------------------


def _class_rows_by_pairs(n: int, store: Sequence[int], used: Sequence[int]) -> dict[int, list[int]]:
    """Per-color adjacency bitsets, one step per pair of the flat store."""
    masks = {c: [0] * n for c in used}
    for v in range(1, n):
        bit_v = 1 << v
        for u, c in enumerate(store[v * (v - 1) // 2 : v * (v + 1) // 2]):
            rows = masks[c]
            rows[u] |= bit_v
            rows[v] |= 1 << u
    return masks


def _class_rows_by_bytes(n: int, store: Sequence[int], used: Sequence[int]) -> dict[int, list[int]]:
    """Per-color adjacency bitsets from one byte matrix; at most 255 colors.

    Byte v * 64 + u of the matrix is the code of the color of {u, v}, 0 on
    the diagonal and in columns n to 63.  Codes are the colors themselves
    when they fit a byte, else their ranks in ``used``.  Row v of the store
    fills row v left of the diagonal and, by a strided slice, column v
    above it.  For each color, one translation of the reversed matrix to
    binary digits, read by ``int(., 2)``, puts bit u of row v at bit
    v * 64 + u, so the rows are its 64-bit words.
    """
    width = 64  # a row is one 64-bit word, and n <= MAX_VERTICES = 64
    if used and used[-1] > 255:
        codes = range(1, len(used) + 1)
        rank = dict(zip(used, codes))
        flat = bytes(map(rank.__getitem__, store))
    else:
        codes = used
        flat = bytes(store)
    matrix = bytearray(width * n)
    at = 0
    for v in range(1, n):
        row = flat[at : at + v]
        at += v
        matrix[v * width : v * width + v] = row
        matrix[v : v * width : width] = row
    digits = matrix[::-1]
    words = struct.Struct(f"<{n}Q")
    masks = {}
    for c, code in zip(used, codes):
        bit = int(digits.translate(b"0" * code + b"1" + b"0" * (255 - code)), 2)
        masks[c] = list(words.unpack(bit.to_bytes(8 * n, "little")))
    return masks


# -- constructors ----------------------------------------------------------


def build(n: int, k: int, colors: Mapping[tuple[int, int], int]) -> ColoredCompleteGraph:
    """Build a coloring from a pair -> color map (either pair orientation)."""
    flat = []
    for v in range(1, n):
        for u in range(v):
            if (u, v) in colors:
                c = colors[(u, v)]
                if (v, u) in colors and colors[(v, u)] != c:
                    raise ValueError(f"conflicting colors for pair {{{u},{v}}}")
            elif (v, u) in colors:
                c = colors[(v, u)]
            else:
                raise MissingPair(u, v)
            flat.append(c)
    return ColoredCompleteGraph(n, k, flat)


def complete_monochromatic(n: int, k: int, color: int) -> ColoredCompleteGraph:
    """K_n with every edge the given color, declared palette 1..k."""
    if not 1 <= color <= k:
        raise ColorOutOfRange(0, 1, color, k)
    return ColoredCompleteGraph(n, k, [color] * (n * (n - 1) // 2))


def induced(g: ColoredCompleteGraph, s: VertexSubset) -> ColoredCompleteGraph:
    """The coloring induced on subset ``s``, relabeled order-preserving to 0..|s|-1."""
    if s.n != g.n:
        raise ValueError(f"subset host order {s.n} != graph order {g.n}")
    verts = s.vertices()
    if not verts:
        raise EmptySubset("induced subgraph on the empty set")
    colors = g.edge_colors()
    flat: list[int] = []
    for j, w in enumerate(verts):
        flat += [colors[w * (w - 1) // 2 + u] for u in verts[:j]]
    return ColoredCompleteGraph(len(verts), g.k, flat)


def substitute(
    base: ColoredCompleteGraph, parts: Sequence[ColoredCompleteGraph]
) -> ColoredCompleteGraph:
    """Blow each base vertex i up into ``parts[i]``.

    Edges inside copy i keep their colors from parts[i]; edges between copies
    i and j take the base color of {i,j}.  The result palette is the maximum
    of all declared palettes.
    """
    if len(parts) != base.n:
        raise ArityMismatch(base.n, len(parts))
    sizes = [p.n for p in parts]
    total = sum(sizes)
    if total > MAX_VERTICES:
        raise SizeLimitExceeded(f"substitution result has {total} > {MAX_VERTICES} vertices")
    flat = _substitute_store(base.edge_colors(), sizes, [p.edge_colors() for p in parts])
    return ColoredCompleteGraph(total, max(base.k, max(p.k for p in parts)), flat)


def _substitute_store(base_colors: Sequence[int], sizes: list[int], stores: list) -> list[int]:
    """Flat store of ``substitute``; part i has sizes[i] vertices and flat store stores[i]."""
    flat: list[int] = []
    for i, colors in enumerate(stores):
        # A vertex of copy i sees each earlier copy j in base color {j,i}, then its part's row.
        row = i * (i - 1) // 2
        lead = [base_colors[row + j] for j in range(i) for _ in range(sizes[j])]
        for v in range(sizes[i]):
            flat += lead
            flat += colors[v * (v - 1) // 2 : v * (v + 1) // 2]
    return flat


def relabel(g: ColoredCompleteGraph, perm: Sequence[int]) -> ColoredCompleteGraph:
    """Apply a vertex permutation: vertex i of ``g`` becomes ``perm[i]``."""
    if sorted(perm) != list(range(g.n)):
        raise ValueError("perm is not a permutation of the vertex set")
    colors = g.edge_colors()
    flat = [0] * len(colors)
    for v in range(1, g.n):
        for u, c in enumerate(colors[v * (v - 1) // 2 : v * (v + 1) // 2]):
            flat[pair_index(perm[u], perm[v])] = c
    return ColoredCompleteGraph(g.n, g.k, flat)


# -- text serialization ------------------------------------------------------
#
# Line 1 is "n k".  For i = 1..n-1, the next line holds i space-separated
# color ids, entry j giving the color of {j,i} for j < i.  Lines starting
# with '#' are comments, one per line of comment text, and the parser skips
# them.  A trailing newline is required.


def serialize(g: ColoredCompleteGraph, comments: Sequence[str] = ()) -> str:
    out = [f"# {line}" for c in comments for line in c.split("\n")]
    out.append(f"{g.n} {g.k}")
    colors = g.edge_colors()
    names = {c: str(c) for c in set(colors)}  # only the colors present: k is unbounded
    words = list(map(names.__getitem__, colors))
    out += [" ".join(words[v * (v - 1) // 2 : v * (v + 1) // 2]) for v in range(1, g.n)]
    return "\n".join(out) + "\n"


def parse(text: str) -> ColoredCompleteGraph:
    if not text.endswith("\n"):
        raise ColoringParseError("missing trailing newline")
    header: tuple[int, int] | None = None
    tokens: list[str] = []  # the data rows' entries in store order
    lines: list[int] = []  # the line number of each data row
    error: ColoringParseError | None = None
    n = k = 0
    for ln, raw in enumerate(text.split("\n")[:-1], start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if header is None:
            if len(fields) != 2:
                raise ColoringParseError("expected header 'n k'", ln)
            try:
                n, k = int(fields[0]), int(fields[1])
            except ValueError:
                raise ColoringParseError("expected header 'n k'", ln) from None
            if not 1 <= n <= MAX_VERTICES:
                raise ColoringParseError(f"order {n} outside 1..{MAX_VERTICES}", ln)
            if k < 1:
                raise ColoringParseError(f"palette size {k} must be at least 1", ln)
            header = (n, k)
            continue
        row = len(lines) + 1
        # A bad entry on an earlier row is reported first, so this waits.
        if row >= n:
            error = ColoringParseError("data after the last expected row", ln)
            break
        if len(fields) != row:
            error = ColoringParseError(f"expected {row} entries, got {len(fields)}", ln)
            break
        tokens += fields
        lines.append(ln)
    if header is None:
        raise ColoringParseError("empty input")
    # One int() per distinct spelling: a host has few colors and many entries.
    try:
        value = {t: int(t) for t in set(tokens)}
        ok = all(1 <= c <= k for c in value.values())
    except ValueError:
        ok = False
    if not ok:
        # Locate the first bad entry in row order for the error.
        for row, ln in enumerate(lines, start=1):
            for j, f in enumerate(tokens[row * (row - 1) // 2 : row * (row + 1) // 2]):
                try:
                    c = int(f)
                except ValueError:
                    raise ColoringParseError(f"entry {j} is not an integer", ln) from None
                if not 1 <= c <= k:
                    raise ColoringParseError(
                        f"color {c} on pair {{{j},{row}}} outside palette 1..{k}", ln
                    )
    if error is not None:
        raise error
    if len(lines) != n - 1:
        raise ColoringParseError(f"expected {n - 1} data rows, got {len(lines)}")
    return ColoredCompleteGraph(n, k, list(map(value.__getitem__, tokens)))
