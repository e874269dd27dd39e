"""Exception types shared across the package.

Operations validate their inputs and raise one of these instead of trusting
callers; each error carries enough structure (vertex, edge, set index) for a
caller to point at the offending piece of input.
"""

from __future__ import annotations


class GallaiLabError(Exception):
    """Base class for every package-specific error."""


class SizeLimitExceeded(GallaiLabError):
    """Requested graph order is beyond the 64-vertex bitset fast path."""


class MissingPair(GallaiLabError):
    """A pair -> color map left some vertex pair unassigned."""

    def __init__(self, u: int, v: int):
        self.pair = (u, v)
        super().__init__(f"no color assigned to pair {{{u},{v}}}")


class ColorOutOfRange(GallaiLabError):
    """An edge color falls outside the declared palette 1..k."""

    def __init__(self, u: int, v: int, color: int, k: int):
        self.pair = (u, v)
        self.color = color
        super().__init__(f"color {color} on pair {{{u},{v}}} outside palette 1..{k}")


class EmptySubset(GallaiLabError):
    """An induced subgraph was requested on zero vertices."""


class ArityMismatch(GallaiLabError):
    """Substitution received a part list whose length differs from the base order."""

    def __init__(self, expected: int, got: int):
        self.expected = expected
        self.got = got
        super().__init__(f"expected {expected} parts, got {got}")


class ColoringParseError(GallaiLabError):
    """A coloring text file failed to parse; ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DiracPreconditionFailed(GallaiLabError):
    """The minimum-degree condition 2*deg(v) >= n does not hold."""

    def __init__(self, vertex: int, degree: int, order: int):
        self.vertex = vertex
        self.degree = degree
        self.order = order
        super().__init__(
            f"vertex {vertex} has degree {degree} < {order}/2 in a graph of order {order}"
        )


class DegreePreconditionFailed(GallaiLabError):
    """A per-vertex two-color degree bound does not hold."""

    def __init__(self, vertex: int, red_degree: int, blue_degree: int, required: int):
        self.vertex = vertex
        self.red_degree = red_degree
        self.blue_degree = blue_degree
        self.required = required
        super().__init__(
            f"vertex {vertex}: red degree {red_degree} + blue degree {blue_degree}"
            f" < required {required}"
        )


class NotGallai(GallaiLabError):
    """The coloring contains a rainbow triangle; ``witness`` names one."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"coloring contains a rainbow triangle {witness.vertices}")


class InvalidPartition(GallaiLabError):
    """A partition failed validation; ``report`` holds the first violation."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report.reason))


class HypothesisViolated(GallaiLabError):
    """A structural hypothesis of a lemma engine does not hold for the input."""


class BadParameters(GallaiLabError):
    """A construction was asked for parameters outside its defined range."""


class OverLimit(GallaiLabError):
    """An exhaustive search was asked for an order above the cap its caller set."""

    def __init__(self, n: int, k: int, limit: int):
        self.n = n
        self.k = k
        self.limit = limit
        super().__init__(
            f"exhaustive search for n={n}, k={k} exceeds the order cap {limit}"
        )
