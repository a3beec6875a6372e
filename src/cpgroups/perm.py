"""Permutations of {0..degree-1} with a fixed composition convention.

Products apply the left factor first: ``(p * q)(x) == q(p(x))``.  The same
convention is used for every group built from permutations.
"""

from __future__ import annotations

import math
import re


class Permutation:
    """Bijection on {0..degree-1} stored as a tuple of point images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(x) for x in images)
        if not images:
            raise ValueError("degree must be at least 1")
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"images {images} are not a bijection on 0..{len(images) - 1}")
        self.images = images

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Apply ``self`` first, then ``other``."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")
        return Permutation(other.images[x] for x in self.images)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(inv)

    def cycles(self, fixed_points: bool = False) -> list[list[int]]:
        """Disjoint cycles, each starting at its smallest point, sorted by start."""
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = []
            x = start
            while not seen[x]:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1 or fixed_points:
                out.append(cyc)
        return out

    def order(self) -> int:
        """Least k >= 1 with the k-th power equal to the identity."""
        return math.lcm(*(len(c) for c in self.cycles(fixed_points=True)))

    def cycle_string(self) -> str:
        """1-based disjoint-cycle notation; the identity renders as ``e``."""
        cycs = self.cycles()
        if not cycs:
            return "e"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cycs)

    def __repr__(self) -> str:
        return f"Permutation({list(self.images)})"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse 1-based cycle notation like ``(1 2)(3 4)`` into a Permutation.

    Cycles compose left-to-right (leftmost cycle applied first); points not
    mentioned are fixed.  Commas and whitespace both separate points.
    An empty string gives the identity.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise ValueError(f"malformed cycle notation: {text!r}")
    if text.count("(") != text.count(")") or text.count("(") != len(_CYCLE_RE.findall(text)):
        raise ValueError(f"unbalanced parentheses in {text!r}")
    result = Permutation.identity(degree)
    for body in _CYCLE_RE.findall(text):
        points = [p for p in re.split(r"[,\s]+", body.strip()) if p]
        if not points:
            raise ValueError(f"empty cycle in {text!r}")
        try:
            pts = [int(p) for p in points]
        except ValueError as exc:
            raise ValueError(f"non-integer point in {text!r}") from exc
        for p in pts:
            if not 1 <= p <= degree:
                raise ValueError(f"point {p} out of range 1..{degree}")
        if len(set(pts)) != len(pts):
            raise ValueError(f"repeated point within one cycle: {body!r}")
        images = list(range(degree))
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a - 1] = b - 1
        result = result * Permutation(images)
    return result

