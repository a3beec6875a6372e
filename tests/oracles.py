"""Independent slow-path oracles the fast implementations are checked against.

Everything here deliberately avoids the library's vectorized algorithms:
plain Python loops, sets, and raw subset enumeration.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import numpy as np

from cpgroups import FiniteGroup, Permutation, group_from_spec
from cpgroups.core import _PermIndex


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


def slow_element_orders(g: FiniteGroup) -> list[int]:
    """:func:`slow_element_order` of every element at once: each step
    multiplies every element's current power by the element again, in one
    :meth:`FiniteGroup.mul_pairs` round, until each power reaches the
    identity."""
    pending = np.arange(g.order)
    power = pending.copy()
    orders = np.zeros(g.order, dtype=np.int64)
    k = 1
    while pending.size:
        done = power == 0
        orders[pending[done]] = k
        pending, power = pending[~done], power[~done]
        power = g.mul_pairs(power, pending)
        k += 1
        if k > g.order + 1:
            raise AssertionError("order loop ran past the group order")
    return orders.tolist()


def slow_pair_witness(g: FiniteGroup, holds) -> tuple[int, int] | None:
    """First pair (a, b) in row-major order with not holds(o(a), o(b), o(ab)).

    Products come from the rows of g (:meth:`FiniteGroup.mul_outer` of all
    elements) as Python lists and orders from repeated multiplication by
    them; ``holds`` gets three Python ints, and the pairs are tried one at a
    time, row by row.  None when every pair holds.
    """
    n = g.order
    table = g.mul_outer(np.arange(n)).tolist()
    orders = []
    for x in range(n):
        k, cur = 1, x
        while cur != 0:
            cur = table[cur][x]
            k += 1
        orders.append(k)
    for a in range(n):
        row = table[a]
        for b in range(n):
            if not holds(orders[a], orders[b], orders[row[b]]):
                return a, b
    return None


def all_triples_witness(table) -> tuple[int, int, int] | None:
    """The first triple (i, j, k), i ascending, with (ij)k != i(jk) in a
    Cayley table, or None when the operation is associative: all n^3
    triples, one row i of (ij)k against i(jk) at a time."""
    T = np.asarray(table)
    for i in range(len(T)):
        # [j, k]: (ij)k and i(jk)
        left, right = T[T[i], :], T[i][T]
        if not np.array_equal(left, right):
            j, k = np.argwhere(left != right)[0]
            return i, int(j), int(k)
    return None


def slow_perm_order(p: Permutation) -> int:
    """Repeated composition oracle for permutation order."""
    k = 1
    cur = p
    ident = Permutation.identity(p.degree)
    while cur != ident:
        cur = cur * p
        k += 1
    return k


def slow_perm_parity(images) -> int:
    """0 for an even permutation, 1 for an odd one, from its cycle count."""
    seen, cycles = set(), 0
    for start in range(len(images)):
        if start not in seen:
            cycles += 1
            x = start
            while x not in seen:
                seen.add(x)
                x = int(images[x])
    return (len(images) - cycles) % 2


def rowwise_lookup_table(g: FiniteGroup) -> np.ndarray:
    """Cayley table of a permutation group, one index lookup per row.

    Row i holds the indices of the products i*y, found by composing the
    image arrays and looking each one up in a fresh element index: n
    lookups of n rows, against which the group's own products are checked.
    """
    perms = g.perms
    index = _PermIndex(perms)
    table = np.empty((g.order, g.order), dtype=np.int32)
    for i in range(g.order):
        table[i] = index.lookup(perms[:, perms[i]])
    return table


def slow_perm_table(g: FiniteGroup) -> list[list[int]]:
    """Cayley table of a permutation group by pure-Python composition."""
    perms = [Permutation(row) for row in g.perms]
    index = {p: i for i, p in enumerate(perms)}
    return [[index[p * q] for q in perms] for p in perms]


def _fill_mod(out: np.ndarray, m: int, sign: int, shift: int = 0, offset: int = 0) -> None:
    """out[x, y] = offset + (x + sign * y + shift) mod m on an m x m block, in place."""
    ar = np.arange(m, dtype=np.int32)
    np.add.outer(ar + shift, sign * ar, out=out)
    np.remainder(out, m, out=out)
    if offset:
        out += offset


def _metacyclic_table(m: int, square: int) -> np.ndarray:
    """Table of the 2m elements a^i (index i) and a^i b (index m + i) with
    a^m = 1, b a = a^-1 b and b^2 = a^square, filled block by block:
    a^i a^j = a^(i+j), a^i a^j b = a^(i+j) b, a^i b a^j = a^(i-j) b and
    a^i b a^j b = a^(i-j+square)."""
    table = np.empty((2 * m, 2 * m), dtype=np.int32)
    _fill_mod(table[:m, :m], m, 1)
    _fill_mod(table[:m, m:], m, 1, offset=m)
    _fill_mod(table[m:, :m], m, -1, offset=m)
    _fill_mod(table[m:, m:], m, -1, shift=square)
    return table


def _elemab_table(p: int, k: int) -> np.ndarray:
    """Table of (Z_p)^k, element i the vector of its base-p digits, one
    digit at a time."""
    n = p**k
    ar = np.arange(n, dtype=np.int32)
    table = np.zeros((n, n), dtype=np.int32)
    for d in range(k):
        digit = (ar // p**d) % p
        table += np.add.outer(digit, digit) % p * p**d
    return table


def reference_table(spec: str) -> np.ndarray:
    """The int32 Cayley table of a group identifier, filled entry block by
    entry block from the defining relations of its family, independently
    of the group's own products; a permutation group's by composition
    (:func:`slow_perm_table`), and a direct product's from its factors'
    tables with (a, b) at index a*|H| + b."""
    if spec.startswith("product:"):
        gt, ht = (reference_table(part) for part in spec[len("product:") :].split(","))
        n = len(gt) * len(ht)
        return (gt[:, None, :, None] * len(ht) + ht[None, :, None, :]).reshape(n, n)
    family, _, arg = spec.partition(":")
    if family == "cyclic":
        table = np.empty((int(arg), int(arg)), dtype=np.int32)
        _fill_mod(table, int(arg), 1)
        return table
    if family == "dihedral":
        return _metacyclic_table(int(arg) // 2, 0)
    if family == "dicyclic":
        return _metacyclic_table(int(arg) // 2, int(arg) // 4)
    if family == "elemab":
        p, k = arg.split("^")
        return _elemab_table(int(p), int(k))
    return np.array(slow_perm_table(group_from_spec(spec)), dtype=np.int32)


def _slow_classes(g: FiniteGroup) -> Iterator[list[int]]:
    """Brute-force conjugation orbits t^-1 x t over every t, each sorted,
    one at a time by smallest member."""
    remaining = set(range(g.order))
    while remaining:
        x = min(remaining)
        cls = {g.mul(g.mul(int(g.inv[t]), x), t) for t in range(g.order)}
        yield sorted(cls)
        remaining -= cls


def slow_conjugacy_classes(g: FiniteGroup) -> list[list[int]]:
    """Brute-force conjugacy classes, each sorted, listed by smallest member."""
    return list(_slow_classes(g))


def slow_conjugacy_sizes(g: FiniteGroup) -> list[int]:
    """Brute-force conjugation orbit sizes, sorted ascending."""
    return sorted(len(cls) for cls in _slow_classes(g))


def slow_center(g: FiniteGroup) -> list[int]:
    """Elements z with z*x == x*z for every x, one pair at a time."""
    n = g.order
    return [z for z in range(n) if all(g.mul(z, x) == g.mul(x, z) for x in range(n))]


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
    classes = itertools.islice(_slow_classes(g), 1, None)
    return all(len(_slow_closure(g, set(cls))) == g.order for cls in classes)


def slow_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """Every subgroup as a sorted index tuple, listed in tuple order.

    From the trivial subgroup on, each subgroup found is extended by each
    element outside it, and the extension is closed by multiplying out from
    the identity by the generators; every subgroup is generated by finitely
    many of its elements, so each is reached.
    """
    table = g.mul_outer(np.arange(g.order)).tolist()

    def generated(gens: tuple[int, ...]) -> frozenset:
        members = {0}
        frontier = [0]
        while frontier:
            new = []
            for a in frontier:
                for b in gens:
                    c = table[a][b]
                    if c not in members:
                        members.add(c)
                        new.append(c)
            frontier = new
        return frozenset(members)

    found = {frozenset([0]): ()}
    frontier = list(found)
    while frontier:
        new = []
        for h in frontier:
            for x in range(g.order):
                if x not in h:
                    gens = found[h] + (x,)
                    k = generated(gens)
                    if k not in found:
                        found[k] = gens
                        new.append(k)
        frontier = new
    return sorted(tuple(sorted(h)) for h in found)


def slow_normal_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """The subgroups of :func:`slow_subgroups` that hold every conjugate
    t^-1 h t of their members h by every element t."""
    out = []
    for h in slow_subgroups(g):
        members = set(h)
        if all(g.mul(g.mul(int(g.inv[t]), x), t) in members for t in range(g.order) for x in h):
            out.append(h)
    return out


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
    By Lagrange's theorem the members of a subgroup of size d have orders
    dividing d, so the subsets of size d are drawn from those elements only
    (orders from :func:`slow_element_order`).
    """
    n = g.order
    table = g.mul_outer(np.arange(n))
    orders = [slow_element_order(g, x) for x in range(n)]
    count = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        if d == 1:
            count += 1
            continue
        pool = [x for x in range(1, n) if d % orders[x] == 0]
        combos = itertools.combinations(pool, d - 1)
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


def cyclic_union_subgroup_count(g: FiniteGroup) -> int:
    """Count the subgroups as the unions of cyclic subgroups that are closed
    under products.

    Every subgroup H is the union of the cyclic subgroups <x> of its
    members, and by Lagrange's theorem each of those has order dividing |H|.
    So for each d dividing n, the distinct unions of size d of the <x> of
    order dividing d are formed, one <x> at a time, each union a bitmask
    and a union of more than d elements dropped at once; a union closed
    under all products of its members is a subgroup, and each subgroup is
    counted once.  The products come from :meth:`FiniteGroup.mul_outer`, the
    <x> from repeated multiplication by x.  The work is exponential in the
    number of cyclic subgroups, so this is for groups of order at most 24.
    """
    n = g.order
    table = g.mul_outer(np.arange(n))
    rows = table.tolist()
    cyclic = set()
    for x in range(n):
        members, cur = 1, x  # bit 0: the identity
        while cur != 0:
            members |= 1 << cur
            cur = rows[cur][x]
        cyclic.add(members)
    count = 0
    for d in range(1, n + 1):
        if n % d:
            continue
        unions = {1}
        for c in cyclic:
            if d % c.bit_count() == 0:
                unions |= {u | c for u in unions if (u | c).bit_count() <= d}
        for u in unions:
            if u.bit_count() == d:
                idx = [i for i in range(n) if u >> i & 1]
                member = np.zeros(n, dtype=bool)
                member[idx] = True
                count += bool(member[table[np.ix_(idx, idx)]].all())
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


def slow_generate_perms(generators: list[Permutation]) -> np.ndarray:
    """Breadth-first closure over a Python set of image tuples: the
    identity, then each level's new elements in lexicographic image order."""
    identity = tuple(range(generators[0].degree))
    seen = {identity}
    elements = [identity]
    level = [identity]
    while level:
        products = {tuple(gen.images[x] for x in row) for row in level for gen in generators}
        level = sorted(products - seen)
        seen.update(level)
        elements += level
    return np.array(elements)


def _power_labels(n: int, suffix: str = "") -> list[str]:
    out = []
    for i in range(n):
        if i == 0:
            out.append("e" if not suffix else suffix)
        elif i == 1:
            out.append("a" + ("*" + suffix if suffix else ""))
        else:
            out.append(f"a^{i}" + ("*" + suffix if suffix else ""))
    return out


def eager_labels(spec: str, g: FiniteGroup) -> list[str]:
    """Every label of the catalog group ``spec`` (built as g), rendered up
    front by the list formulas of each family."""
    family, _, arg = spec.partition(":")
    if family == "product":
        a, b = arg.split(",")
        left, right = (eager_labels(part, group_from_spec(part)) for part in (a, b))
        return [f"({x},{y})" for x in left for y in right]
    if family == "cyclic":
        return _power_labels(int(arg))
    if family in ("dihedral", "dicyclic"):
        m = g.order // 2
        return _power_labels(m) + _power_labels(m, suffix="b")
    if family == "elemab":
        p, k = (int(t) for t in arg.split("^"))
        rows = [[(i // p**d) % p for d in range(k)] for i in range(p**k)]
        return ["e"] + ["(" + ",".join(str(d) for d in row) + ")" for row in rows[1:]]
    return [Permutation(row).cycle_string() for row in g.perms]


def slow_coset_labels(g: FiniteGroup, members: list[int], labels: list[str]) -> list[str]:
    """Labels of g/N: the cosets N*x as sets of the given element labels,
    ordered by their smallest members."""
    rows = g.mul_outer(np.array(members)).T.tolist()  # row x: the products m*x
    cosets = sorted({frozenset(row) for row in rows}, key=min)
    return ["{" + ",".join(labels[i] for i in sorted(c)) + "}" for c in cosets]
