"""Complete subgroup enumeration and the scans built on top of it.

Enumeration seeds with all cyclic subgroups and closes the set under joins
with those cyclic atoms until nothing new appears; every subgroup is a join
of its cyclic subgroups, so the fixed point is the full lattice.  The same
join closure over the normal closures of the conjugacy classes gives the
normal subgroups (:meth:`FiniteGroup.normal_subgroups`).  Exceeding the
enumeration cap raises instead of truncating: a partial list would break
every closure claim downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .core import (
    SUBGROUP_CAP,
    CapExceededError,
    FiniteGroup,
    SubgroupSet,
    distinct_primes,
)
from .metric import PAIR_CONDITIONS, PairCondition

GroupPredicate = Callable[[FiniteGroup], Union[bool, tuple]]


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First occurrence of each distinct row of a boolean matrix, in row order,
    and the rows packed to bits.

    A packed row's bytes are the key of its subgroup in :func:`_join_closure`.
    For the sort the packed rows are padded to whole uint64 words and
    lexsorted; the sort is stable, so the first occurrence of a row leads
    its run of equal rows.
    """
    packed = np.packbits(rows, axis=1, bitorder="little")
    m, nbytes = packed.shape
    words = np.zeros((m, -(-nbytes // 8) * 8), dtype=np.uint8)
    words[:, :nbytes] = packed
    words = words.view(np.uint64)
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    first = np.ones(m, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[first]), packed


def _join_closure(g: FiniteGroup, atoms: list[tuple[np.ndarray, list[int]]]) -> np.ndarray:
    """Member masks of the trivial subgroup and every join of the atoms, one row each.

    ``atoms`` are subgroups of g as (member mask, generators); repeated
    masks are dropped.  Breadth first from the trivial subgroup and the
    atoms, every subgroup of a frontier is joined with each atom it does not
    contain, one batch per atom, until a frontier brings nothing new; the
    fixed point holds the subgroup generated by every set of atoms.

    In an abelian group the join of H and A is the product HA: for each
    generator a of A the batch is closed under the right shifts by a, a^2,
    a^4, ... (a^(2^k) for 2^k < o(a)), one vectorized pass each.
    Otherwise :meth:`FiniteGroup._grow` grows each row of the batch from H
    by the generators of A, with the generators of H as its steps and as the
    partners of the new generators (two reflections of a dihedral group,
    one from H and one from A, would otherwise walk the cycle of their
    product one step per round); the closure carries every subgroup's
    generators along.  Each batch is deduplicated exactly
    (:func:`_distinct_rows`) before its rows are looked up among the
    subgroups already found.
    """
    n = g.order
    orders = g.order_table().orders
    abelian = g.is_abelian
    trivial = np.zeros((1, n), dtype=bool)
    trivial[0, 0] = True
    seeds = np.concatenate([trivial] + [members[None, :] for members, _ in atoms])
    first, packed = _distinct_rows(seeds)
    known = {packed[j].tobytes() for j in first.tolist()}
    seed_gens = [[]] + [list(gens) for _, gens in atoms]
    frontier, frontier_gens = seeds[first], [seed_gens[j] for j in first.tolist()]
    joins = []
    for j in first[1:].tolist():
        gens = seed_gens[j]
        shifts = []
        if abelian:
            for a in gens:
                power, reach = int(a), 1
                while reach < orders[a]:
                    # x*c for every x: in an abelian group that is the row c*x
                    shifts.append(g.mul_outer(g.inv[[power]])[0])
                    power, reach = g.mul(power, power), 2 * reach
        joins.append((np.array(gens, dtype=np.int64), shifts))
    levels = [frontier]
    while len(frontier):
        new_rows: list[np.ndarray] = []
        new_gens: list[list[int]] = []
        for gens, shifts in joins:
            sel = np.flatnonzero(~frontier[:, gens].all(axis=1))
            if not sel.size:
                continue
            joined = frontier[sel]
            if abelian:
                for shift in shifts:
                    joined |= joined[:, shift]
            else:
                joined_gens = [
                    frontier_gens[i]
                    + g._grow(row, list(frontier_gens[i]), gens, partners=frontier_gens[i])
                    for row, i in zip(joined, sel.tolist())
                ]
            first, packed = _distinct_rows(joined)
            fresh = []
            for j in first.tolist():
                key = packed[j].tobytes()
                if key not in known:
                    known.add(key)
                    fresh.append(j)
            if fresh:
                new_rows.append(joined[fresh])
                if not abelian:
                    new_gens.extend(joined_gens[j] for j in fresh)
        frontier = np.concatenate(new_rows) if new_rows else np.zeros((0, n), dtype=bool)
        frontier_gens = new_gens
        levels.append(frontier)
    return np.concatenate(levels)


def all_subgroups(g: FiniteGroup, cap: int = SUBGROUP_CAP) -> list[SubgroupSet]:
    """Every subgroup of g, sorted by (size, bitset), duplicates impossible.

    Every subgroup is the join of its cyclic subgroups, so this is
    :func:`_join_closure` over the cyclic subgroups <x>, whose members come
    from one vectorized pass of max_order products x^k * x over all x at
    once.  Groups of order above ``cap`` raise CapExceededError before any
    work, and each subgroup found is validated as closed under
    multiplication.  Results are cached on the group instance.
    """
    n = g.order
    if n > cap:
        raise CapExceededError(f"order {n} exceeds the subgroup-enumeration cap {cap}")
    cached = g._cache.get("subgroups")
    if cached is not None:
        return list(cached)
    ar = np.arange(n)
    cyclic = np.zeros((n, n), dtype=bool)
    power = ar
    for _ in range(g.order_table().max_order):
        cyclic[ar, power] = True
        power = g.mul_pairs(power, ar)
    out = []
    for members in _join_closure(g, [(cyclic[x], [x]) for x in range(1, n)]):
        if not g.is_closed_subset(np.flatnonzero(members)):
            raise RuntimeError("enumerated subgroup failed closure validation")
        out.append(SubgroupSet.from_bool(members))
    out.sort(key=lambda s: (s.size, s.mask))
    g._cache["subgroups"] = tuple(out)
    return out


def write_subgroup_list(subs: list[SubgroupSet], stream) -> None:
    """One subgroup bitset per line, hex-encoded."""
    for s in subs:
        stream.write(s.hex() + "\n")


def _predicate_holds(predicate: GroupPredicate, grp: FiniteGroup) -> bool:
    result = predicate(grp)
    if isinstance(result, tuple):
        return bool(result[0])
    return bool(result)


@dataclass(frozen=True)
class HereditaryReport:
    """Outcome of checking a predicate on every subgroup of one group."""

    applicable: bool
    subgroups_checked: int
    violations: tuple[SubgroupSet, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _holds_on_subgroup(g: FiniteGroup, s: SubgroupSet, condition: PairCondition) -> bool:
    """Whether a pair-order condition holds on all |H|^2 pairs of the subgroup H.

    Decided on g's own data: an element of H has the same order in H as in
    g, and so does a product of two of them.
    """
    idx = s.indices()
    orders = g.order_table().orders
    sub_orders = orders[idx]
    oab = orders[g.mul_outer(idx, idx)]
    return bool(np.asarray(condition(sub_orders[:, None], sub_orders[None, :], oab)).all())


def hereditary_check(
    g: FiniteGroup, predicate: GroupPredicate, cap: int = SUBGROUP_CAP
) -> HereditaryReport:
    """Find subgroups violating a predicate that the parent satisfies.

    Inapplicable (parent fails the predicate) yields an empty, vacuous
    report.  The pair-order predicates :func:`is_cp2` and :func:`is_cp3`
    are decided exhaustively on each subgroup through g's order table
    (:func:`_holds_on_subgroup`).  Any other predicate runs on the subgroup
    realized as a standalone group by :meth:`FiniteGroup.subgroup`.
    """
    if not _predicate_holds(predicate, g):
        return HereditaryReport(applicable=False, subgroups_checked=0, violations=())
    condition = next((c for p, c in PAIR_CONDITIONS if p is predicate), None)
    violations = []
    subs = all_subgroups(g, cap=cap)
    for s in subs:
        if condition is not None:
            holds = _holds_on_subgroup(g, s, condition)
        else:
            holds = _predicate_holds(predicate, g.subgroup(s))
        if not holds:
            violations.append(s)
    return HereditaryReport(
        applicable=True, subgroups_checked=len(subs), violations=tuple(violations)
    )


@dataclass(frozen=True)
class AbelianScanReport:
    """Every abelian subgroup with its p-group status."""

    total_subgroups: int
    abelian_subgroups: tuple[tuple[SubgroupSet, Union[int, str, None]], ...]

    @property
    def verdict(self) -> bool:
        return all(flag is not None for _, flag in self.abelian_subgroups)


def abelian_subgroup_scan(g: FiniteGroup, cap: int = SUBGROUP_CAP) -> AbelianScanReport:
    """List abelian subgroups and check each has prime-power order."""
    subs = all_subgroups(g, cap=cap)
    parent_abelian = g.is_abelian
    entries = []
    for s in subs:
        if not parent_abelian:
            idx = s.indices()
            prods = g.mul_outer(idx, idx)
            if not np.array_equal(prods, prods.T):
                continue
        if s.size == 1:
            flag: Union[int, str, None] = "trivial"
        else:
            primes = distinct_primes(s.size)
            flag = primes[0] if len(primes) == 1 else None
        entries.append((s, flag))
    return AbelianScanReport(total_subgroups=len(subs), abelian_subgroups=tuple(entries))


@dataclass(frozen=True)
class QuotientScanRow:
    normal: SubgroupSet
    quotient_order: int
    holds: bool


@dataclass(frozen=True)
class QuotientScanReport:
    """Predicate verdicts over all quotients; observational data only.

    Whether the surveyed class is closed under homomorphic images is an
    open question; this scan makes no claim beyond the rows it lists.
    """

    parent_holds: bool
    rows: tuple[QuotientScanRow, ...]
    conclusive: bool = field(default=False)

    @property
    def counterexamples(self) -> tuple[QuotientScanRow, ...]:
        if not self.parent_holds:
            return ()
        return tuple(r for r in self.rows if not r.holds)


def quotient_scan(
    g: FiniteGroup, predicate: GroupPredicate, cap: int = SUBGROUP_CAP
) -> QuotientScanReport:
    """Evaluate a predicate on g/N for every normal subgroup N."""
    rows = []
    for normal in g.normal_subgroups(cap=cap):
        quotient = g.quotient(normal)
        rows.append(
            QuotientScanRow(
                normal=normal,
                quotient_order=quotient.order,
                holds=_predicate_holds(predicate, quotient),
            )
        )
    return QuotientScanReport(parent_holds=_predicate_holds(predicate, g), rows=tuple(rows))
