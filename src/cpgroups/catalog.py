"""Constructors for the concrete groups the toolkit ships with.

Cyclic, dihedral, dicyclic and elementary abelian groups multiply by
formula on their normal forms (a^i b^s with b a = a^-1 b, digit vectors)
and give their element orders and generators in closed form;
symmetric and alternating groups are built from standard permutation
generators, and PSL(2,q) by exhausting SL(2,q) over a
lookup-table finite field and deduplicating the induced projective-line
permutations.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional

import numpy as np

from .core import (
    Backend,
    FiniteGroup,
    LabelFn,
    capped_product,
    check_element_cap,
    direct_product,
    distinct_primes,
    from_permutation_set,
    generate_group,
    is_prime,
)
from .perm import Permutation, parse_cycles

SUPPORTED_PSL_Q = (2, 3, 4, 5, 7, 8, 9, 11, 13, 17)

# reduction polynomials as ascending coefficient tuples, constant term first
_REDUCTION_POLYS = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
    (2, 5): (1, 0, 1, 0, 0, 1), # x^5 + x^2 + 1
    (3, 2): (1, 0, 1),          # x^2 + 1
    (3, 3): (1, 2, 0, 1),       # x^3 + 2x + 1
    (5, 2): (1, 1, 1),          # x^2 + x + 1
}

_FIELD_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@dataclass(frozen=True, eq=False)
class FieldTable:
    """GF(p^k) as q x q addition and multiplication lookup tables.

    Element i encodes the polynomial with base-p digits of i as coefficients
    (constant term first), so 0 is the additive and 1 the multiplicative
    identity.
    """

    q: int
    p: int
    k: int
    add: np.ndarray
    mul: np.ndarray
    neg: np.ndarray
    inv: np.ndarray
    reduction: tuple[int, ...]


def _poly_mul_mod(a: list[int], b: list[int], red: tuple[int, ...], p: int) -> list[int]:
    k = len(red) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    for d in range(len(prod) - 1, k - 1, -1):
        c = prod[d]
        if c:
            prod[d] = 0
            for j in range(k):
                prod[d - k + j] = (prod[d - k + j] - c * red[j]) % p
    out = prod[:k]
    out += [0] * (k - len(out))
    return out


def _check_field(f: FieldTable) -> None:
    q = f.q
    ar = np.arange(q)
    for table, unit in ((f.add, 0), (f.mul, 1)):
        if not np.array_equal(table, table.T):
            raise ValueError("field table is not commutative")
        if not np.array_equal(table[unit], ar):
            raise ValueError("field identity row is wrong")
    add, mul = f.add.astype(np.int64), f.mul.astype(np.int64)
    for i in range(q):
        if not np.array_equal(add[add[i], :], add[i][add]):
            raise ValueError("field addition is not associative")
        if not np.array_equal(mul[mul[i], :], mul[i][mul]):
            raise ValueError("field multiplication is not associative")
        if not np.array_equal(mul[i][add], add[np.ix_(mul[i], mul[i])]):
            raise ValueError("distributivity fails")
    if not (add[ar, f.neg] == 0).all():
        raise ValueError("additive inverse table is wrong")
    nz = ar[1:]
    if not (mul[nz, f.inv[nz]] == 1).all():
        raise ValueError(
            "some nonzero element has no multiplicative inverse (reducible polynomial?)"
        )
    acc = 0
    for _ in range(f.p):
        acc = int(add[acc, 1])
    if acc != 0:
        raise ValueError("characteristic check failed")


def make_field(p: int, k: int) -> FieldTable:
    """GF(p^k) lookup tables for p in the small-prime list and p^k <= 32."""
    if p not in _FIELD_PRIMES or k < 1 or p**k > 32:
        raise ValueError(f"unsupported field GF({p}^{k})")
    q = p**k
    if k == 1:
        ar = np.arange(q, dtype=np.int64)
        add = (ar[:, None] + ar[None, :]) % q
        mul = (ar[:, None] * ar[None, :]) % q
        reduction = (0, 1)
    else:
        reduction = _REDUCTION_POLYS.get((p, k))
        if reduction is None:
            raise ValueError(f"no reduction polynomial configured for GF({p}^{k})")
        digits = [[(i // p**d) % p for d in range(k)] for i in range(q)]
        add = np.empty((q, q), dtype=np.int64)
        mul = np.empty((q, q), dtype=np.int64)
        weights = [p**d for d in range(k)]
        for i in range(q):
            for j in range(q):
                s = [(digits[i][d] + digits[j][d]) % p for d in range(k)]
                add[i, j] = sum(c * w for c, w in zip(s, weights))
                m = _poly_mul_mod(digits[i], digits[j], reduction, p)
                mul[i, j] = sum(c * w for c, w in zip(m, weights))
    neg = np.argmax(add == 0, axis=1)
    inv = np.argmax(mul == 1, axis=1)
    inv[0] = 0
    field = FieldTable(q=q, p=p, k=k, add=add, mul=mul, neg=neg, inv=inv, reduction=reduction)
    _check_field(field)
    return field


# -- formula families --------------------------------------------------------


class _CyclicBackend(Backend):
    """Z_n, element i the power a^i: (a + b) mod n."""

    def __init__(self, n: int):
        self.order = n
        self.inv = (-np.arange(n, dtype=np.int32)) % n

    def mul_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        s = a + b
        s %= self.order  # in place: a pair scan block holds 2^20 products
        return s

    def orders(self) -> np.ndarray:
        """o(a^i) = n / gcd(i, n)."""
        n = self.order
        return n // np.gcd(np.arange(n), n)

    def generators(self, group: FiniteGroup) -> list[int]:
        """a, the element 1; none for Z_1."""
        return [1] if self.order > 1 else []


class _MetacyclicBackend(Backend):
    """The 2m elements a^i b^s at index s*m + i, with a^m = 1, b a = a^-1 b
    and b^2 = a^square: a^i a^j = a^(i+j), a^i a^j b = a^(i+j) b,
    a^i b a^j = a^(i-j) b and a^i b a^j b = a^(i-j+square).  The inverse of
    a^i b is a^(i+square) b."""

    def __init__(self, m: int, square: int):
        self.order, self._m, self._square = 2 * m, m, square
        ar = np.arange(m)
        self.inv = np.concatenate([-ar % m, m + (ar + square) % m]).astype(np.int32)

    def mul_pairs(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        m = self._m
        sx, sy = x // m, y // m
        # the exponents i of x and y are x and y mod m
        return (sx ^ sy) * m + (x + (1 - 2 * sx) * y + sx * sy * self._square) % m

    def orders(self) -> np.ndarray:
        """o(a^i) = m / gcd(i, m); (a^i b)^2 = a^square for every i, so each
        a^i b has order 2 o(a^square): 2 in a dihedral group, 4 in a dicyclic one."""
        m = self._m
        rotations = m // np.gcd(np.arange(m), m)
        return np.concatenate([rotations, np.full(m, 2 * m // math.gcd(self._square, m))])

    def generators(self, group: FiniteGroup) -> list[int]:
        """a and b, the elements 1 and m; only b for m = 1, where a = 1."""
        return [1, self._m] if self._m > 1 else [self._m]


class _ElemAbBackend(Backend):
    """(Z_p)^k, element i the vector of its base-p digits: digitwise
    addition mod p, which for p = 2 is a ^ b."""

    def __init__(self, p: int, k: int):
        self.order, self._p = p**k, p
        self._weights = [p**d for d in range(k)]
        ar = np.arange(self.order)
        self.inv = sum(-(ar // w) % p * w for w in self._weights).astype(np.int32)

    def mul_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self._p == 2:
            return a ^ b
        return sum((a // w + b // w) % self._p * w for w in self._weights)

    def orders(self) -> np.ndarray:
        """p for every element but the identity."""
        orders = np.full(self.order, self._p, dtype=np.int64)
        orders[0] = 1
        return orders

    def generators(self, group: FiniteGroup) -> list[int]:
        """The k unit vectors, the elements p^d."""
        return list(self._weights)


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n."""
    if n < 1:
        raise ValueError("order must be positive")
    check_element_cap(n)
    return FiniteGroup(_CyclicBackend(n), labels=_power_label, name=f"cyclic:{n}")


def _power_label(i: int, suffix: str = "") -> str:
    """a^i, then ``*suffix``: e, a, a^2, ... or b, a*b, a^2*b, ..."""
    if i == 0:
        return suffix or "e"
    power = "a" if i == 1 else f"a^{i}"
    return f"{power}*{suffix}" if suffix else power


def _metacyclic_label(m: int) -> LabelFn:
    """The label function of a^i (index i) and a^i b (index m + i)."""
    return lambda i: _power_label(i) if i < m else _power_label(i - m, "b")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (n rotations, n reflections)."""
    if n < 1:
        raise ValueError("n must be positive")
    check_element_cap(2 * n)
    return FiniteGroup(_MetacyclicBackend(n, 0), labels=_metacyclic_label(n), name=f"dihedral:{2 * n}")


def dicyclic(n: int) -> FiniteGroup:
    """Dicyclic group of order 4n: <a,b | a^(2n)=1, b^2=a^n, b^-1 a b = a^-1>.

    For n a power of 2 this is the generalized quaternion group Q_{4n}
    (Q8 = dicyclic(2)).
    """
    if n < 1:
        raise ValueError("n must be positive")
    check_element_cap(4 * n)
    return FiniteGroup(
        _MetacyclicBackend(2 * n, n), labels=_metacyclic_label(2 * n), name=f"dicyclic:{4 * n}"
    )


def elementary_abelian(p: int, k: int) -> FiniteGroup:
    """(Z_p)^k with digitwise addition; the cap is checked before the trial
    division that tests p for primality, minutes long on a p of 19 digits."""
    if k < 1:
        raise ValueError("k must be positive")
    if p > 1:  # 1^k is under the cap, which would take k steps to see
        capped_product(p for _ in range(k))
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")

    def label(i: int) -> str:
        """The base-p digits of i, lowest first; e for 0."""
        return "(" + ",".join(str(i // p**d % p) for d in range(k)) + ")" if i else "e"

    return FiniteGroup(_ElemAbBackend(p, k), labels=label, name=f"elemab:{p}^{k}")


# -- permutation families ----------------------------------------------------


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n points from the standard two generators."""
    if n < 1:
        raise ValueError("n must be positive")
    order = capped_product(range(2, n + 1))
    if n == 1:
        gens = [Permutation.identity(1)]
    elif n == 2:
        gens = [parse_cycles("(1 2)", 2)]
    else:
        gens = [parse_cycles("(1 2)", n), parse_cycles("(" + " ".join(str(i) for i in range(1, n + 1)) + ")", n)]
    grp = generate_group(gens, name=f"symmetric:{n}")
    if grp.order != order:
        raise RuntimeError("symmetric group order formula violated")
    return grp


def alternating(n: int) -> FiniteGroup:
    """Alternating group on n points (even permutations)."""
    if n < 1:
        raise ValueError("n must be positive")
    order = capped_product(range(3, n + 1))  # n!/2 for n >= 2
    if n <= 2:
        gens = [Permutation.identity(max(n, 1))]
    elif n == 3:
        gens = [parse_cycles("(1 2 3)", 3)]
    else:
        long_cycle = range(1, n + 1) if n % 2 == 1 else range(2, n + 1)
        gens = [
            parse_cycles("(1 2 3)", n),
            parse_cycles("(" + " ".join(str(i) for i in long_cycle) + ")", n),
        ]
    grp = generate_group(gens, name=f"alternating:{n}")
    if grp.order != order:
        raise RuntimeError("alternating group order formula violated")
    return grp


def psl2(q: int) -> FiniteGroup:
    """PSL(2,q) acting on the q+1 points of the projective line.

    All determinant-1 matrices over GF(q) are enumerated, each mapped to its
    Mobius permutation z -> (az+b)/(cz+d); the distinct permutations form
    the group.  Point i < q is the field element i, point q is infinity.
    """
    if q not in SUPPORTED_PSL_Q:
        raise ValueError(f"unsupported q={q}; supported: {SUPPORTED_PSL_Q}")
    p = distinct_primes(q)[0]
    k = round(math.log(q, p))
    field = make_field(p, k)
    add, mul, neg, finv = field.add, field.mul, field.neg, field.inv
    grids = np.meshgrid(*([np.arange(q)] * 4), indexing="ij")
    a, b, c, d = (g.ravel() for g in grids)
    det = add[mul[a, d], neg[mul[b, c]]]
    keep = det == 1
    a, b, c, d = a[keep], b[keep], c[keep], d[keep]
    if len(a) != q**3 - q:
        raise RuntimeError("SL(2,q) enumeration size mismatch")
    npts = q + 1
    images = np.empty((len(a), npts), dtype=np.int64)
    for z in range(q):
        num = add[mul[a, z], b]
        den = add[mul[c, z], d]
        finite = mul[num, finv[den]]
        images[:, z] = np.where(den != 0, finite, q)
    images[:, q] = np.where(c != 0, mul[a, finv[c]], q)
    expected = _psl2_order(q)
    grp = from_permutation_set(images, name=f"psl2:{q}")
    if grp.order != expected:
        raise RuntimeError(
            f"PSL(2,{q}) order mismatch: got {grp.order}, expected {expected}"
        )
    return grp


# -- the catalog ---------------------------------------------------------------


@dataclass(frozen=True)
class CatalogEntry:
    """Lazy catalog row: stable name, known order, and a builder."""

    name: str
    order: int
    family: str
    abelian: bool
    build: Callable[[], FiniteGroup]


def _psl2_order(q: int) -> int:
    return q * (q * q - 1) // math.gcd(2, q - 1)


@dataclass(frozen=True)
class _Family:
    """One family: ``build`` makes the group a spec's integers name, and
    ``members(bound)`` yields (integers, order, abelian) of each catalog group
    of order <= bound.  A spec writes its integers as ``form``; the first must
    be a multiple of ``per``, or the spec breaks ``rule``, and ``build`` gets it
    divided by ``per``: ``dihedral:2n`` is ``dihedral(n)``."""

    build: Callable[..., FiniteGroup]
    members: Callable[[int], Iterator[tuple[tuple[int, ...], int, bool]]]
    form: str = "n"
    per: int = 1
    rule: str = ""


# Dihedral and dicyclic specs carry the group order, symmetric and
# alternating the degree, elemab p and k, psl2 q.  As n! >= 2^(n-1) and
# p^k >= 2^k, no degree or exponent above bound.bit_length() fits the bound.
_FAMILIES: dict[str, _Family] = {
    "cyclic": _Family(cyclic, lambda b: (((n,), n, True) for n in range(1, b + 1))),
    "dihedral": _Family(
        dihedral, lambda b: (((m,), m, m == 4) for m in range(4, b + 1, 2)), per=2, rule="order must be even and >= 2"
    ),
    "dicyclic": _Family(
        dicyclic, lambda b: (((m,), m, False) for m in range(8, b + 1, 4)),
        per=4, rule="order must be a positive multiple of 4",
    ),
    "symmetric": _Family(
        symmetric, lambda b: (((n,), f, False) for n in range(3, b.bit_length() + 1) if (f := math.factorial(n)) <= b)
    ),
    "alternating": _Family(
        alternating,
        lambda b: (((n,), f, False) for n in range(4, b.bit_length() + 2) if (f := math.factorial(n) // 2) <= b),
    ),
    "elemab": _Family(
        elementary_abelian,
        lambda b: (
            ((p, k), p**k, True)
            for p in range(2, math.isqrt(b) + 1) if is_prime(p)
            for k in range(2, b.bit_length()) if p**k <= b
        ),
        form="p^k",
    ),
    "psl2": _Family(psl2, lambda b: (((q,), _psl2_order(q), False) for q in SUPPORTED_PSL_Q if _psl2_order(q) <= b)),
}


def catalog_entries(max_order: int) -> list[CatalogEntry]:
    """Deterministic catalog of named groups with order <= max_order.

    Sorted by (order, name); names double as CLI group identifiers, and
    each entry builds its group from its name.  The ``abelian`` flag is
    structural (known from the family), letting sweeps skip construction
    when only nonabelian groups matter.
    """
    check_element_cap(max_order, "max_order")
    rows = [
        (f"{family}:{'^'.join(map(str, ints))}", order, family, abelian)
        for family, row in _FAMILIES.items()
        for ints, order, abelian in row.members(max_order)
    ]
    factors = [(name, order) for name, order, family, _ in rows if family == "cyclic" and order > 1]
    orders = [order for _, order in factors]
    rows += [
        (f"product:{a},{b}", m * n, "product", True)
        for i, (a, m) in enumerate(factors)
        for b, n in factors[i : bisect_right(orders, max_order // m)]
    ]
    rows.sort(key=lambda row: (row[1], row[0]))
    return [CatalogEntry(*row, partial(group_from_spec, row[0])) for row in rows]


def catalog_iter(max_order: int) -> Iterator[tuple[str, FiniteGroup]]:
    """Stream of (name, group) over the catalog, in deterministic order."""
    for entry in catalog_entries(max_order):
        yield entry.name, entry.build()


# -- identifier resolution --------------------------------------------------


def group_from_spec(spec: str) -> FiniteGroup:
    """Resolve a CLI identifier like ``cyclic:6`` or ``psl2:7`` to a group.

    A family name from the family table, then its integers in ASCII
    decimal digits; or product and exactly two comma-separated specs of
    any other family (``product:symmetric:3,cyclic:2``).
    """
    spec = spec.strip()
    if spec.startswith("product:"):
        body = spec[len("product:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"product spec needs exactly two components: {spec!r}")
        return direct_product(group_from_spec(parts[0]), group_from_spec(parts[1]))
    if ":" not in spec:
        raise ValueError(f"unrecognized group spec {spec!r}")
    family, _, arg = spec.partition(":")
    row = _FAMILIES.get(family)
    if row is None:
        raise ValueError(f"unknown group family {family!r}")
    seps = row.form.count("^")
    texts = arg.split("^", seps)
    if len(texts) <= seps:
        raise ValueError(f"{family} spec must look like {family}:{row.form}: {spec!r}")
    first, *rest = [_positive_int(text, spec) for text in texts]
    if first % row.per:
        raise ValueError(f"{family} {row.rule}: {spec!r}")
    return row.build(first // row.per, *rest)


def decimal(text: str) -> Optional[int]:
    """The integer text spells in ASCII digits, with an optional minus sign and
    whitespace around it; None for the plus sign, underscores and non-ASCII
    digits that int() also accepts, and anything else."""
    try:
        return int(text) if re.fullmatch(r"\s*-?[0-9]+\s*", text) else None
    except ValueError:  # above int()'s limit on digits
        return None


def _positive_int(text: str, spec: str) -> int:
    value = decimal(text)
    if value is None:
        raise ValueError(f"bad integer in group spec {spec!r}")
    if value < 1:
        raise ValueError(f"value must be positive in group spec {spec!r}")
    return value
