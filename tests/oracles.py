"""Independent reference implementations used only by the tests.

Everything here is written against the problem statement, not against the
package internals: different algorithms, different data layouts, so that
agreement between the two is meaningful.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Sequence

import numpy as np

from gallai_lab.coloring import BitGraph, ColoredCompleteGraph, substitute


# -- exact-length cycle existence (layered subset DP) ------------------------------


def cycle_exists_dp(masks: Sequence[int], n: int, m: int) -> bool:
    """Is there a simple cycle on exactly m vertices?

    For each anchor s (forced to be the cycle's minimum vertex) run a subset
    DP over states (visited set, endpoint), packed into uint32 codes
    ``mask * 32 + endpoint`` and deduplicated per layer.  n <= 20.
    """
    if m < 3 or m > n:
        return False
    if n > 20:
        raise ValueError("dp oracle is sized for n <= 20")
    adj = np.zeros(n, dtype=np.uint32)
    for v in range(n):
        adj[v] = masks[v]
    for s in range(n - m + 1):
        sbit = np.uint32(1 << s)
        allowed = np.uint32(((1 << n) - 1) & ~((1 << (s + 1)) - 1))
        starts = [
            (((1 << s) | (1 << e)) << 5) | e
            for e in range(s + 1, n)
            if (masks[s] >> e) & 1
        ]
        if not starts:
            continue
        states = np.unique(np.array(starts, dtype=np.uint32))
        for _ in range(m - 2):
            if states.size == 0:
                break
            vis = states >> np.uint32(5)
            end = (states & np.uint32(31)).astype(np.int64)
            nbr = adj[end] & ~vis & allowed
            pieces = []
            for w in range(s + 1, n):
                take = ((nbr >> np.uint32(w)) & np.uint32(1)).astype(bool)
                if not take.any():
                    continue
                nv = vis[take] | np.uint32(1 << w)
                pieces.append((nv << np.uint32(5)) | np.uint32(w))
            if not pieces:
                states = np.empty(0, dtype=np.uint32)
                break
            states = np.unique(np.concatenate(pieces))
        if states.size == 0:
            continue
        end = (states & np.uint32(31)).astype(np.int64)
        if ((adj[end] & sbit) != 0).any():
            return True
    return False


def hamilton_cycle_exists_bruteforce(masks: Sequence[int], n: int) -> bool:
    """Permutation-level Hamiltonicity check, for meta-testing the DP oracle."""
    if n < 3:
        return False
    for perm in itertools.permutations(range(1, n)):
        order = (0,) + perm
        if all((masks[order[i]] >> order[(i + 1) % n]) & 1 for i in range(n)):
            return True
    return False


def cycle_through_edge_bruteforce(
    masks: Sequence[int], a: int, b: int, m: int, allowed: Sequence[int]
) -> bool:
    """Is there a simple cycle a, b, x_3, ..., x_m on exactly m vertices?

    The edge {a, b} counts as present whether or not ``masks`` has it; every
    other edge must be in ``masks`` and every x_i in ``allowed``.  Tries each
    ordered choice of the m - 2 remaining vertices.
    """
    rest = [x for x in allowed if x != a and x != b]
    for tail in itertools.permutations(rest, m - 2):
        walk = (b,) + tail + (a,)
        if all((masks[walk[i]] >> walk[i + 1]) & 1 for i in range(m - 1)):
            return True
    return False


# -- longest path feasibility (plain DFS) ------------------------------------------


def path_exists_dfs(masks: Sequence[int], n: int, edges: int) -> bool:
    """Is there a simple path with the given number of edges?  Early-exit DFS."""
    if edges <= 0:
        return n >= 1
    target = edges + 1

    def grow(v: int, visited: int, length: int) -> bool:
        if length >= target:
            return True
        rest = masks[v] & ~visited
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            if grow(u, visited | low, length + 1):
                return True
        return False

    return any(grow(s, 1 << s, 1) for s in range(n))


# -- the lexicographically first cycle or path (plain DFS) ----------------------------


def first_sequence_bruteforce(
    masks: Sequence[int], n: int, length: int, closed: bool
) -> tuple[int, ...] | None:
    """The least sequence of ``length`` distinct vertices along edges of ``masks``.

    Consecutive vertices must be adjacent, and with ``closed`` the last and
    the first too (a cycle).  Plain depth-first extension in increasing
    vertex order with no cut, so the first sequence reached is the least.
    Its reversal (and, for a cycle, each rotation) is another such sequence,
    so the least one is already in canonical form.
    """

    def grow(seq: tuple[int, ...]) -> tuple[int, ...] | None:
        if len(seq) == length:
            return seq if not closed or (masks[seq[-1]] >> seq[0]) & 1 else None
        for v in range(n):
            if v not in seq and (not seq or (masks[seq[-1]] >> v) & 1):
                found = grow(seq + (v,))
                if found is not None:
                    return found
        return None

    return grow(())


# -- color-class rows pair by pair --------------------------------------------------


def class_rows_by_pairs(g: ColoredCompleteGraph) -> dict[int, list[int]]:
    """Adjacency bitsets of each color present, from ``color_of`` on every ordered pair."""
    rows: dict[int, list[int]] = {}
    for v in range(g.n):
        for u in range(g.n):
            if u != v:
                rows.setdefault(g.color_of(u, v), [0] * g.n)[v] |= 1 << u
    return rows


# -- rainbow triangles by triple enumeration ----------------------------------------


def rainbow_triangles_bruteforce(g: ColoredCompleteGraph) -> list[tuple[int, int, int]]:
    """All rainbow triangles, by checking every vertex triple."""
    out = []
    for a, b, c in itertools.combinations(range(g.n), 3):
        x, y, z = g.color_of(a, b), g.color_of(a, c), g.color_of(b, c)
        if x != y and y != z and x != z:
            out.append((a, b, c))
    return out


# -- set partitions and automorphisms -----------------------------------------------


def set_partitions(items: Sequence[int]) -> Iterator[list[list[int]]]:
    """All partitions of the item list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def palette_permutations(blocks: Sequence[Sequence[int]] = ()) -> list[dict[int, int]]:
    """Every renaming of colors that permutes colors only inside each block.

    A renaming maps each block color to its new name; colors outside the
    blocks keep theirs.  The identity comes first.
    """
    out = []
    for images in itertools.product(*(itertools.permutations(b) for b in blocks)):
        out.append({c: d for block, image in zip(blocks, images) for c, d in zip(block, image)})
    return out


def automorphism_count(g: ColoredCompleteGraph, blocks: Sequence[Sequence[int]] = ()) -> int:
    """The number of (vertex permutation, block renaming) pairs that fix g.

    Brute force over all of them (small n only); with no blocks this is |Aut|.
    """
    pairs = list(itertools.combinations(range(g.n), 2))
    count = 0
    for tau in palette_permutations(blocks):
        for perm in itertools.permutations(range(g.n)):
            if all(
                g.color_of(perm[u], perm[v]) == tau.get(g.color_of(u, v), g.color_of(u, v))
                for u, v in pairs
            ):
                count += 1
    return count


def _renamed(colors: list[list[int]], tau: dict[int, int]) -> list[list[int]]:
    return [[tau.get(c, c) for c in row] for row in colors]


def canonical_key(
    colors: list[list[int]], ell: int, blocks: Sequence[Sequence[int]] = ()
) -> tuple[int, ...]:
    """The minimal color word over all relabelings (reference isomorphism invariant).

    With ``blocks`` the minimum also runs over every renaming of colors
    inside each block.  Factorial in the worst case; the search dedups by
    refinement and an isomorphism test instead, and the tests check the two
    agree.
    """
    if blocks:
        return min(canonical_key(_renamed(colors, tau), ell) for tau in palette_permutations(blocks))
    best: list[int] | None = None
    img = [0] * ell
    used = [False] * ell

    def place(r: int, word: list[int]) -> None:
        nonlocal best
        if r == ell:
            if best is None or word < best:
                best = list(word)
            return
        for cand in range(ell):
            if used[cand]:
                continue
            crow = colors[cand]
            grown = word + [crow[img[i]] for i in range(r)]
            if best is not None and grown > best[: len(grown)]:
                continue
            used[cand] = True
            img[r] = cand
            place(r + 1, grown)
            used[cand] = False

    place(0, [])
    assert best is not None
    return tuple(best)


# -- color-degree refinement with byte-string signatures ---------------------------


def refine_with_byte_signatures(
    rows: list[list[int]], cells: list[int], targets: list[int]
) -> tuple[list[int], list]:
    """Color-degree refinement with byte-string signatures (reference for ``_refine``).

    The same rounds as the search's ``_refine``, but a vertex's signature
    is the byte string of its color counts toward the targets, color by
    color and target by target, where ``_refine`` packs the same counts
    into one int.  A count is at most 63, so it always fits a byte.
    """
    trace = []
    while targets:
        split: list[int] = []
        fresh: list[int] = []
        t = targets[0]
        u = t.bit_length() - 1 if len(targets) == 1 and not t & (t - 1) else -1
        for i, cell in enumerate(cells):
            if not cell & (cell - 1):
                split.append(cell)
                continue
            groups: dict = {}
            rest = cell
            if u >= 0:
                for c, row in enumerate(rows, 1):
                    part = rest & row[u]
                    if part:
                        groups[c] = part
                        rest ^= part
                if rest:
                    groups[len(rows) + 1] = rest
            else:
                while rest:
                    low = rest & -rest
                    rest ^= low
                    v = low.bit_length() - 1
                    sig = bytes([(row[v] & m).bit_count() for row in rows for m in targets])
                    groups[sig] = groups.get(sig, 0) | low
            if len(groups) == 1:
                (sig,) = groups
                trace.append((i, cell.bit_count(), sig))
                split.append(cell)
                continue
            order = sorted(groups)
            sizes = [groups[sig].bit_count() for sig in order]
            big = sizes.index(max(sizes))
            for j, sig in enumerate(order):
                trace.append((i, sizes[j], sig))
                split.append(groups[sig])
                if j != big:
                    fresh.append(groups[sig])
        cells, targets = split, fresh
    return cells, trace


# -- the min-image test ------------------------------------------------------------


_SMALLER, _AUTOMORPHISM, _NOTHING = range(3)


def _is_min_image(colors: list[list[int]], ell: int) -> bool:
    """True when no vertex relabeling yields a smaller color word.

    The word reads the colors of (label i, label r) for r = 1..ell-1,
    i = 0..r-1; under the identity labeling entry (r, i) is colors[i][r].
    A relabeling is built position by position, img[r] being the vertex that
    takes label r, and a branch is dropped once its column r is larger than
    the identity's.  Candidates are tried in increasing order, so the
    identity is the first relabeling reached, and the search then backs up
    the identity path, from its deepest node to its root.

    Below identity node r (img[i] = i for i < r) a branch img[r] = x != r is
    searched only to its first relabeling that ties on every column.  That
    relabeling is an automorphism fixing 0..r-1 and mapping r to x, so it
    carries the identity's subtree, already searched, onto the rest of the
    branch: the search jumps straight back to node r.  Each automorphism's
    cycles are merged into one union-find of vertex orbits.  All of them were
    found at node r or deeper, so they fix 0..r-1, and a candidate x that is
    not the least vertex of its orbit is skipped: an automorphism fixing
    0..r-1 maps the branch of that least vertex, already searched, onto x's.
    Branches off the identity path are not pruned by orbits, since the
    automorphisms found need not fix their prefix.
    """
    img = list(range(ell))
    used = [True] * ell
    orbit = list(range(ell))  # union-find; each root is the least vertex of its orbit

    def root(x: int) -> int:
        while orbit[x] != x:
            x = orbit[x]
        return x

    def column(cand: int, r: int) -> int:
        # compare column r with cand at label r against the identity's column
        crow = colors[cand]
        for i in range(r):
            a = crow[img[i]]
            b = colors[i][r]
            if a != b:
                return -1 if a < b else 1
        return 0

    def branch(r: int) -> int:
        # search below img[0..r-1], off the identity path
        for cand in range(ell):
            if used[cand]:
                continue
            verdict = column(cand, r)
            if verdict == 1:
                continue
            if verdict == -1:
                return _SMALLER
            img[r] = cand
            if r + 1 == ell:
                return _AUTOMORPHISM
            used[cand] = True
            found = branch(r + 1)
            used[cand] = False
            if found != _NOTHING:
                return found
        return _NOTHING

    for r in range(ell - 1, -1, -1):
        # identity node r: vertices 0..r-1 keep their labels, x = r is done
        used[r] = False
        for x in range(r + 1, ell):
            if root(x) != x:
                continue
            verdict = column(x, r)
            if verdict == 1:
                continue
            if verdict == -1:
                return False
            img[r] = x
            used[x] = True
            found = branch(r + 1)
            used[x] = False
            if found == _SMALLER:
                return False
            if found == _AUTOMORPHISM:
                for i in range(r, ell):
                    a, b = root(i), root(img[i])
                    if a != b:
                        orbit[max(a, b)] = min(a, b)
    return True


def _relabeling_gives_smaller(colors: list[list[int]], ell: int, other: list[list[int]]) -> bool:
    """Does some vertex relabeling of ``other`` give a smaller word than ``colors``'s own?

    Position by position, like the min-image test, but without automorphism
    pruning.  It stops at the first relabeling that ties on every column:
    then ``other`` is a relabeling of ``colors``, and whether a smaller word
    exists is the min-image test's question.
    """
    img = [0] * ell
    used = [False] * ell

    def place(r: int) -> int:
        if r == ell:
            return 0
        for cand in range(ell):
            if used[cand]:
                continue
            verdict = 0
            for i in range(r):
                a, b = other[cand][img[i]], colors[i][r]
                if a != b:
                    verdict = -1 if a < b else 1
                    break
            if verdict == 1:
                continue
            if verdict == -1:
                return -1
            used[cand] = True
            img[r] = cand
            found = place(r + 1)
            used[cand] = False
            if found != 1:
                return found
        return 1

    return place(0) == -1


def is_group_min_image(colors: list[list[int]], ell: int, blocks: Sequence[Sequence[int]]) -> bool:
    """True when no vertex relabeling and renaming inside the blocks gives a smaller word."""
    if not _is_min_image(colors, ell):
        return False
    return not any(
        _relabeling_gives_smaller(colors, ell, _renamed(colors, tau))
        for tau in palette_permutations(blocks)[1:]
    )


# -- Gallai partitions by definition ---------------------------------------------------


def _merge_blocks(blocks: list[list[int]], seen: list[list[set]], i: int, j: int) -> None:
    """Merge block j into block i (i < j); ``seen[a][b]`` holds the colors between a and b."""
    blocks[i] = sorted(blocks[i] + blocks.pop(j))
    for z in range(len(seen)):
        seen[i][z] = seen[z][i] = seen[i][z] | seen[j][z]
    del seen[j]
    for row in seen:
        del row[j]


def gallai_partition_reference(g: ColoredCompleteGraph, coarsest: bool = False):
    """``gallai_partition`` read off its definition, with vertex lists and color sets.

    Every candidate between-color set in the package's order (singletons,
    then pairs, ascending); blocks are the components of the other colors,
    and two blocks whose edges carry two or more colors merge until none do.
    With ``coarsest`` the first pair of blocks (by least vertex) that every
    other block sees in one color merges, until none or two blocks are left.
    Each candidate is then assembled and checked by hand; the fewest parts
    win, the first candidate on ties.
    """
    from gallai_lab.coloring import VertexSubset
    from gallai_lab.structure import GallaiPartition

    n = g.n
    col = [[0] * n for _ in range(n)]
    for u, v in itertools.combinations(range(n), 2):
        col[u][v] = col[v][u] = g.color_of(u, v)
    used = sorted({col[u][v] for u, v in itertools.combinations(range(n), 2)})
    best = None
    for cand in [(c,) for c in used] + list(itertools.combinations(used, 2)):
        blocks: list[list[int]] = []
        for s in range(n):
            if any(s in b for b in blocks):
                continue
            comp, stack = {s}, [s]
            while stack:
                x = stack.pop()
                for y in range(n):
                    if y not in comp and y != x and col[x][y] not in cand:
                        comp.add(y)
                        stack.append(y)
            blocks.append(sorted(comp))
        seen = [[{col[a][b] for a in x for b in y} for y in blocks] for x in blocks]
        while True:
            t = len(blocks)
            pair = next(((i, j) for j in range(t) for i in range(j) if len(seen[i][j]) >= 2), None)
            if pair is None:
                break
            _merge_blocks(blocks, seen, *pair)
        while coarsest and len(blocks) > 2:
            t = len(blocks)
            pair = next(
                (
                    (i, j)
                    for i in range(t)
                    for j in range(i + 1, t)
                    if all(len(seen[i][z] | seen[j][z]) == 1 for z in range(t) if z not in (i, j))
                ),
                None,
            )
            if pair is None:
                break
            _merge_blocks(blocks, seen, *pair)
        t = len(blocks)
        if t < 2:
            continue
        order = sorted(blocks, key=lambda b: (-len(b), b[0]))
        pair_colors = []
        for j in range(1, t):
            for i in range(j):
                between = {col[u][v] for u in order[i] for v in order[j]}
                if len(between) != 1:
                    break
                pair_colors.append((i, j, between.pop()))
        between_colors = sorted({c for _, _, c in pair_colors})
        if len(pair_colors) != t * (t - 1) // 2 or len(between_colors) > 2:
            continue
        if best is None or t < len(best.parts):
            parts = tuple(VertexSubset.of(n, b) for b in order)
            best = GallaiPartition(n, parts, tuple(between_colors), tuple(pair_colors))
    return best


# -- randomized inputs ---------------------------------------------------------------


def random_bitgraph(rng, n: int, p: float) -> BitGraph:
    edges = [
        (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < p
    ]
    return BitGraph.from_edges(n, edges)


def random_min_degree_graph(rng, n: int) -> BitGraph:
    """A random graph conditioned on minimum degree >= n/2."""
    need = (n + 1) // 2
    g = random_bitgraph(rng, n, rng.uniform(0.4, 0.9))
    masks = list(g.masks)
    for v in range(n):
        while masks[v].bit_count() < need:
            others = [u for u in range(n) if u != v and not (masks[v] >> u) & 1]
            u = rng.choice(others)
            masks[v] |= 1 << u
            masks[u] |= 1 << v
    return BitGraph(n, masks)


def random_coloring(rng, n: int, k: int) -> ColoredCompleteGraph:
    flat = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
    return ColoredCompleteGraph(n, k, flat)


def random_gallai_reference(n: int, k: int, seed: int) -> ColoredCompleteGraph:
    """The seeded random Gallai generator built as one graph per level.

    Same draws in the same order as ``constructions.random_gallai``, but each
    level builds its base as a ``ColoredCompleteGraph`` and its result with
    ``substitute``, so the flat-store generator must agree with it exactly.
    """
    rng = random.Random(seed)

    def gen(size: int) -> ColoredCompleteGraph:
        if size == 1:
            return ColoredCompleteGraph(1, k, [])
        t = rng.randint(2, min(4, size))
        cuts = sorted(rng.sample(range(1, size), t - 1))
        sizes = [b - a for a, b in zip([0] + cuts, cuts + [size])]
        c1 = rng.randint(1, k)
        c2 = rng.randint(1, k)
        flat = [rng.choice((c1, c2)) for _ in range(t * (t - 1) // 2)]
        base = ColoredCompleteGraph(t, k, flat)
        return substitute(base, [gen(s) for s in sizes])

    return gen(n)


def random_hub_configuration(rng, k: int, m: int, max_hub: int = 6):
    """A Gallai host shaped for the recoloring lemma: hub A, parts B_1..B_{k-1}.

    Hub interior rainbow-free on palette 1..k, part interiors on the wide
    palette k+2, hub-to-B_i edges in color i, part-pair colors following one
    random priority order so no triangle across three parts sees three colors.
    Returns (graph, a_set, b_sets).
    """
    from gallai_lab.coloring import VertexSubset
    from gallai_lab.constructions import random_gallai

    wide = k + 2
    sizes = [rng.randint(1, m - 1) for _ in range(k - 1)]
    na = rng.randint(1, max_hub)
    n = na + sum(sizes)
    a_graph = random_gallai(na, k, rng.randrange(1 << 30))
    b_graphs = [random_gallai(s, wide, rng.randrange(1 << 30)) for s in sizes]
    priority = list(range(1, k))
    rng.shuffle(priority)
    rank = {i: r for r, i in enumerate(priority)}

    groups = []
    off = na
    for s in sizes:
        groups.append(list(range(off, off + s)))
        off += s
    a_set = VertexSubset.of(n, range(na))
    b_sets = [VertexSubset.of(n, gr) for gr in groups]

    owner = {}
    for v in range(na):
        owner[v] = 0
    for i, gr in enumerate(groups, start=1):
        for v in gr:
            owner[v] = i

    flat = []
    for v in range(1, n):
        for u in range(v):
            i, j = owner[u], owner[v]
            if i == 0 and j == 0:
                flat.append(a_graph.color_of(u, v))
            elif i == j:
                gr = groups[i - 1]
                flat.append(b_graphs[i - 1].color_of(gr.index(u), gr.index(v)))
            elif i == 0 or j == 0:
                flat.append(max(i, j))
            else:
                flat.append(i if rank[i] < rank[j] else j)
    return ColoredCompleteGraph(n, wide, flat), a_set, b_sets
