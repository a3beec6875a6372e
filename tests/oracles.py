"""Independent slow-path oracles the fast implementations are checked against.

Everything here deliberately avoids the library's vectorized algorithms:
plain Python loops, sets, and raw subset enumeration.
"""

from __future__ import annotations

import itertools

import numpy as np

from cpgroups import FiniteGroup, Permutation


def slow_element_order(g: FiniteGroup, i: int) -> int:
    """Repeated multiplication until the identity comes back."""
    k = 1
    cur = i
    while cur != 0:
        cur = g.mul(cur, i)
        k += 1
        if k > g.order + 1:
            raise AssertionError("order loop ran past the group order")
    return k


def slow_perm_order(p: Permutation) -> int:
    """Repeated composition oracle for permutation order."""
    k = 1
    cur = p
    ident = Permutation.identity(p.degree)
    while cur != ident:
        cur = cur * p
        k += 1
    return k


def slow_conjugacy_sizes(g: FiniteGroup) -> list[int]:
    """Brute-force conjugation orbit sizes, sorted ascending."""
    remaining = set(range(g.order))
    sizes = []
    while remaining:
        x = min(remaining)
        cls = {g.mul(g.mul(int(g.inv[t]), x), t) for t in range(g.order)}
        sizes.append(len(cls))
        remaining -= cls
    return sorted(sizes)


def _slow_closure(g: FiniteGroup, seed: set[int]) -> set[int]:
    members = set(seed) | {0}
    while True:
        new = {g.mul(a, b) for a in members for b in members} - members
        if not new:
            return members
        members |= new


def slow_derived_series(g: FiniteGroup) -> list[set[int]]:
    """Commutator-closure oracle for the derived series, as member sets."""
    cur = set(range(g.order))
    series = [cur]
    while len(cur) > 1:
        comms = {
            g.mul(g.mul(int(g.inv[a]), int(g.inv[b])), g.mul(a, b))
            for a in cur
            for b in cur
        }
        nxt = _slow_closure(g, comms)
        if len(nxt) == len(cur):
            break
        series.append(nxt)
        cur = nxt
    return series


def slow_derived_series_sizes(g: FiniteGroup) -> list[int]:
    return [len(members) for members in slow_derived_series(g)]


def slow_is_simple(g: FiniteGroup) -> bool:
    """Order > 1 and every nontrivial brute-force class closes to the whole group."""
    if g.order == 1:
        return False
    remaining = set(range(1, g.order))
    while remaining:
        x = min(remaining)
        cls = {g.mul(g.mul(int(g.inv[t]), x), t) for t in range(g.order)}
        if len(_slow_closure(g, cls)) < g.order:
            return False
        remaining -= cls
    return True


def slow_quotient_order_multiset(g: FiniteGroup, members: list[int]) -> list[int]:
    """Coset-multiplication oracle: element orders of g/N, sorted."""

    def coset(x: int) -> frozenset:
        return frozenset(g.mul(m, x) for m in members)

    cosets = sorted({coset(x) for x in range(g.order)}, key=min)
    ident = coset(0)
    orders = []
    for c in cosets:
        k = 1
        cur = c
        while cur != ident:
            cur = coset(g.mul(min(cur), min(c)))
            k += 1
        orders.append(k)
    return sorted(orders)


def brute_force_subgroup_count(g: FiniteGroup, chunk: int = 8192) -> int:
    """Count identity-containing, divisor-sized, product-closed subsets.

    In a finite group any nonempty product-closed subset is a subgroup, so
    this enumeration (no joins, no lattice walking) counts all subgroups.
    """
    n = g.order
    table = g.table
    assert table is not None
    count = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        if d == 1:
            count += 1
            continue
        combos = itertools.combinations(range(1, n), d - 1)
        while True:
            block = list(itertools.islice(combos, chunk))
            if not block:
                break
            rest = np.array(block, dtype=np.int64)
            subs = np.concatenate([np.zeros((len(rest), 1), dtype=np.int64), rest], axis=1)
            member = np.zeros((len(subs), n), dtype=bool)
            member[np.arange(len(subs))[:, None], subs] = True
            prods = table[subs[:, :, None], subs[:, None, :]]
            closed = member[np.arange(len(subs))[:, None, None], prods].all(axis=(1, 2))
            count += int(closed.sum())
    return count


def quaternion_unit_order_multiset() -> list[int]:
    """Element orders of the eight quaternion units, built by hand.

    Units 1, -1, i, -i, j, -j, k, -k multiply by the usual rules; this makes
    no use of the library's dicyclic construction.
    """
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a: str, b: str) -> str:
        sign = 1
        for t in (a, b):
            if t.startswith("-"):
                sign = -sign
        x, y = a.lstrip("-"), b.lstrip("-")
        rules = {
            ("1", "1"): "1",
            ("i", "i"): "-1",
            ("j", "j"): "-1",
            ("k", "k"): "-1",
            ("i", "j"): "k",
            ("j", "i"): "-k",
            ("j", "k"): "i",
            ("k", "j"): "-i",
            ("k", "i"): "j",
            ("i", "k"): "-j",
        }
        if x == "1":
            res = y
        elif y == "1":
            res = x
        else:
            res = rules[(x, y)]
        if res.startswith("-"):
            sign = -sign
            res = res[1:]
        return res if sign > 0 else "-" + res

    orders = []
    for u in units:
        k = 1
        cur = u
        while cur != "1":
            cur = mul(cur, u)
            k += 1
        orders.append(k)
    return sorted(orders)


def slow_triangle_holds(g: FiniteGroup) -> bool:
    """Raw triple-loop triangle check in pure Python (small groups only)."""
    n = g.order
    orders = [slow_element_order(g, i) for i in range(n)]

    def d(x: int, y: int) -> int:
        return orders[g.mul(x, int(g.inv[y]))] - 1

    for x in range(n):
        for y in range(n):
            for z in range(n):
                if d(x, z) > d(x, y) + d(y, z):
                    return False
    return True


def slow_ultrametric_holds(g: FiniteGroup) -> bool:
    n = g.order
    orders = [slow_element_order(g, i) for i in range(n)]

    def d(x: int, y: int) -> int:
        return orders[g.mul(x, int(g.inv[y]))] - 1

    for x in range(n):
        for y in range(n):
            for z in range(n):
                if d(x, z) > max(d(x, y), d(y, z)):
                    return False
    return True
