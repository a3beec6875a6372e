"""Complete subgroup enumeration and the scans built on top of it.

Each subgroup is made once, as the child of its canonical parent
(:func:`_join_closure`), so nothing is deduplicated; the normal subgroups
of a nonabelian group come by the same rule from its class products
(:meth:`FiniteGroup.normal_subgroups`).  Exceeding the enumeration cap
raises instead of truncating: a partial list would break every closure
claim downstream.

The lattice goes from the join closure to every scan as member rows packed
to words by :mod:`core`, the one module that knows the layout, with the
subgroups' sizes (:func:`_lattice`); only results become SubgroupSets.

The pair-order predicates CP2 and CP3 are decided on every subgroup and on
every quotient from the parent's own elements, with no subgroup or
quotient group built: a subgroup's elements keep their orders
(:func:`pair_condition_verdicts`), and a coset xN has the order of the
least power of x that lies in N, a class function read on the class
products (:func:`quotient_condition_verdicts`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .core import (
    CHECK_ENTRIES,
    SUBGROUP_CAP,
    CapExceededError,
    FiniteGroup,
    SubgroupSet,
    _canonical_joins,
    _coset_roots,
    _members,
    _once,
    _size_blocks,
    _sorted_subgroups,
    _subgroup_sets,
    _subgroup_words,
    _words,
    closure_verdicts,
    prime_power_flag,
)
from .metric import PAIR_CONDITIONS, PairCondition, is_cp, non_prime_power_elements

GroupPredicate = Callable[[FiniteGroup], Union[bool, tuple]]


def _join_closure(g: FiniteGroup, cyclic: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r"""Every subgroup of g as a member row packed to words, and its size,
    each made once, from the member masks ``cyclic[x]`` of the <x>: the
    canonical-parent rule of :func:`core._canonical_joins` on the elements.

    The atoms are the atom generators, each the smallest member of <x> of
    order o(x) for some x: a chain element of a subgroup K lies in K and not
    in the span of the chain before it, and so does that smallest member.
    Atom a is ``below`` the h for which the atom generator of <h*a> lies
    below a.  For h in H and a outside H, h*a lies in K \ H, K = <H, a>,
    and so does the generator of <h*a>, so K would be dropped; and a^-1 is
    one of those h, since <a^-1*a> = <e>, so a row that holds a is left out.

    In an abelian group the join of H and <a> is the product H<a>: the batch
    is closed under the right shifts by a, a^2, a^4, ... (a^(2^k) for 2^k <
    o(a)), one vectorized pass each.  Otherwise K is the coset of the
    identity under right multiplication by H's chain and a, which generate
    it, read off the maps x -> x*a of the atoms (:func:`core._coset_roots`).
    """
    orders = g.order_table().orders
    abelian = g.is_abelian
    ar = np.arange(g.order)
    # the atom generator of <x>, for every x
    generator = (cyclic & (orders == orders[:, None])).argmax(axis=1)
    atoms = np.flatnonzero(generator == ar)[1:]
    # row t: x*a for every x, a = atoms[t]
    right = np.empty((len(atoms), g.order), dtype=np.int32)
    below = np.empty((len(atoms), -(-g.order // 64)), dtype=np.uint64)
    shifts: list[list[np.ndarray]] = [[] for _ in atoms]
    for t, a in enumerate(atoms.tolist()):
        right[t] = g.mul_outer(ar, np.array([a]))[:, 0]
        below[t] = _words((generator[right[t]] < a)[None])
        power, reach = a, 1
        while abelian and reach < orders[a]:
            # x*c for every x: in an abelian group that is the row c*x
            shifts[t].append(g.mul_outer(g.inv[[power]])[0])
            power, reach = g.mul(power, power), 2 * reach

    def join(t, rows, chains, sel):
        if not abelian:
            return _coset_roots(right, np.column_stack([chains[sel], np.full(len(sel), t)])) == 0
        for shift in shifts[t]:
            rows |= rows[:, shift]
        return rows

    return _canonical_joins(g.order, atoms, below, join)


def _lattice(g: FiniteGroup, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The words and sizes behind :func:`all_subgroups`, cached read-only
    (:func:`_subgroup_lattice`) once the order is within ``cap``."""
    if g.order > cap:
        raise CapExceededError(f"order {g.order} exceeds the subgroup-enumeration cap {cap}")
    return _subgroup_lattice(g)


@_once
def _subgroup_lattice(g: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """Every subgroup of g as a row of words, sorted by (size, bitset), and
    its size, validated as closed and kept read-only."""
    n = g.order
    ar = np.arange(n)
    cyclic = np.zeros((n, n), dtype=bool)
    power = ar
    for _ in range(g.order_table().max_order):
        cyclic[ar, power] = True
        power = g.mul_pairs(power, ar)
    words, sizes = _sorted_subgroups(*_join_closure(g, cyclic))
    if not closure_verdicts(g, words, sizes).all():
        raise RuntimeError("enumerated subgroup failed closure validation")
    words.flags.writeable = sizes.flags.writeable = False
    return words, sizes


def all_subgroups(g: FiniteGroup, cap: int = SUBGROUP_CAP) -> list[SubgroupSet]:
    """Every subgroup of g, sorted by (size, bitset), each made once.

    This is :func:`_join_closure` over the cyclic subgroups <x>, whose
    members come from one vectorized pass of max_order products x^k * x
    over all x at once.  Groups of order above ``cap`` raise
    CapExceededError before any work, and the subgroups found are validated
    as closed under multiplication in one batch
    (:func:`core.closure_verdicts`).  The sorted words and sizes are cached
    on the group instance, read-only (:func:`_lattice`, which the scans
    read), and the list is made from them.
    """
    return _subgroup_sets(*_lattice(g, cap))


def write_subgroup_list(subs: list[SubgroupSet], stream) -> None:
    """One subgroup bitset per line, hex-encoded."""
    for s in subs:
        stream.write(s.hex() + "\n")


def _predicate_holds(predicate: GroupPredicate, grp: FiniteGroup) -> bool:
    result = predicate(grp)
    if isinstance(result, tuple):
        return bool(result[0])
    return bool(result)


def _pair_condition(predicate: GroupPredicate) -> PairCondition | None:
    """The pair condition that decides a pair-order predicate
    (:data:`metric.PAIR_CONDITIONS`), or None for any other predicate."""
    return next((c for p, c in PAIR_CONDITIONS if p is predicate), None)


@dataclass(frozen=True)
class HereditaryReport:
    """Outcome of checking a predicate on every subgroup of one group."""

    applicable: bool
    subgroups_checked: int
    violations: tuple[SubgroupSet, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def pair_condition_verdicts(
    g: FiniteGroup, words: np.ndarray, sizes: np.ndarray, condition: PairCondition
) -> np.ndarray:
    """Whether a pair-order condition holds on all |H|^2 pairs, for each
    subgroup H given as a row of words (:func:`core._words`) and its size.

    Decided on g's own data: an element of H has the same order in H as in
    g, and so does a product of two of them.  The products come in blocks
    of subgroups of one size, a large subgroup's in row slices
    (:func:`core._size_blocks`); a subgroup's verdict is the AND over its
    slices.
    """
    orders = g.order_table().orders
    verdicts = np.ones(len(sizes), dtype=bool)
    for block, _, x, y, prods in _size_blocks(g, words, sizes):
        oab = orders[prods]
        ok = condition(orders[x], orders[y], oab)
        verdicts[block] &= np.broadcast_to(np.asarray(ok, dtype=bool), oab.shape).all(axis=(1, 2))
    return verdicts


def _coset_orders(g: FiniteGroup, normals: list[SubgroupSet]) -> np.ndarray:
    """Per conjugacy class K and normal subgroup N of ``normals``, the order
    o_N(x) of the coset xN in G/N for the members x of K: one row per class
    and one column per N, as int32 (an order is at most ELEMENT_CAP).

    o_N(x) is the least k >= 1 with x^k in N, and it is a class function,
    since N is normal.  It divides o(x), so it is the least divisor d of
    the exponent of g with x^d in N: the first row of the table of powers
    x^d of the class representatives, one row per divisor d, whose entry
    lies in N.  The table is read for as many N at a time as keep the
    lookups within CHECK_ENTRIES.
    """
    n = g.order
    exponent = int(np.lcm.reduce(np.unique(g.order_table().orders)))
    divs = np.array([d for d in range(1, exponent + 1) if exponent % d == 0], dtype=np.int32)
    reps = np.array([int(c[0]) for c in g.conjugacy_classes()], dtype=np.int64)
    powers = np.stack([g.powers(reps, int(d)) for d in divs])
    words, _ = _subgroup_words(normals, n)
    out = np.empty((len(reps), len(normals)), dtype=np.int32)
    step = max(1, CHECK_ENTRIES // powers.size)
    for lo in range(0, len(normals), step):
        masks = _members(words[lo : lo + step], n)
        out[:, lo : lo + step] = divs[masks[:, powers].argmax(axis=1)].T
    return out


def quotient_condition_verdicts(
    g: FiniteGroup, normals: list[SubgroupSet], condition: PairCondition
) -> np.ndarray:
    """Whether a pair-order condition holds on all pairs of G/N, for each
    normal subgroup N of ``normals``.

    Decided on g's class products and the orders of the cosets
    (:func:`_coset_orders`), with no quotient built: since (xN)(yN) = xyN
    and o_N is a class function, the condition holds on G/N iff
    ``condition(o_N[i], o_N[j], o_N[l])`` holds for every class triple
    (i, j, l) of :meth:`FiniteGroup._class_products`, read a block at a
    time and in slices that gather coset orders for all N at once, at most
    CHECK_ENTRIES entries a gather.  No quotient order is capped: like
    :meth:`FiniteGroup.quotient`, the verdicts hold no array of the
    quotient's order squared.
    """
    coset_orders = _coset_orders(g, normals)
    verdicts = np.ones(len(normals), dtype=bool)
    step = max(1, CHECK_ENTRIES // max(len(normals), 1))
    for i, j, l in g._class_products():
        for lo in range(0, len(i), step):
            oa, ob, oab = (coset_orders[c[lo : lo + step]] for c in (i, j, l))
            verdicts &= np.broadcast_to(np.asarray(condition(oa, ob, oab), dtype=bool), oab.shape).all(axis=0)
    return verdicts


def hereditary_check(
    g: FiniteGroup, predicate: GroupPredicate, cap: int = SUBGROUP_CAP
) -> HereditaryReport:
    """Find subgroups violating a predicate that the parent satisfies.

    Inapplicable (parent fails the predicate) yields an empty, vacuous
    report.  The pair-order predicates :func:`is_cp2` and :func:`is_cp3`
    are decided exhaustively on each subgroup through g's order table
    (:func:`pair_condition_verdicts`), and :func:`is_cp` there too: an
    element has the same order in H as in g, so H is in CP iff none of its
    members has an order that is not a prime power: one AND of the words.
    Any other predicate runs on the subgroup realized as a standalone group
    by :meth:`FiniteGroup.subgroup`.
    """
    if not _predicate_holds(predicate, g):
        return HereditaryReport(applicable=False, subgroups_checked=0, violations=())
    condition = _pair_condition(predicate)
    words, sizes = _lattice(g, cap)
    if condition is not None:
        holds = pair_condition_verdicts(g, words, sizes, condition)
    elif predicate is is_cp:
        bad = _words(non_prime_power_elements(g)[None])
        holds = ~(words & bad).any(axis=1)
    else:
        subs = _subgroup_sets(words, sizes)
        holds = np.array([_predicate_holds(predicate, g.subgroup(s)) for s in subs], dtype=bool)
    violations = tuple(_subgroup_sets(words[~holds], sizes[~holds]))
    return HereditaryReport(applicable=True, subgroups_checked=len(sizes), violations=violations)


@dataclass(frozen=True)
class AbelianScanReport:
    """Every abelian subgroup with its p-group status."""

    total_subgroups: int
    abelian_subgroups: tuple[tuple[SubgroupSet, Union[int, str, None]], ...]

    @property
    def verdict(self) -> bool:
        return all(flag is not None for _, flag in self.abelian_subgroups)


def abelian_subgroup_scan(g: FiniteGroup, cap: int = SUBGROUP_CAP) -> AbelianScanReport:
    """List abelian subgroups and check each has prime-power order.

    In a nonabelian parent a subgroup is abelian iff x * y = y * x for all
    its members x and y, checked in blocks of subgroups of one size, a
    large subgroup's in row slices (:func:`core._size_blocks`).
    """
    words, sizes = _lattice(g, cap)
    abelian = np.ones(len(sizes), dtype=bool)
    if not g.is_abelian:
        for block, _, x, y, prods in _size_blocks(g, words, sizes):
            abelian[block] &= (prods == g.mul_pairs(y, x)).all(axis=(1, 2))
    entries = tuple((s, prime_power_flag(s.size)) for s in _subgroup_sets(words[abelian], sizes[abelian]))
    return AbelianScanReport(total_subgroups=len(sizes), abelian_subgroups=entries)


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
    """Evaluate a predicate on G/N for every normal subgroup N.

    Every N comes certified a normal subgroup by
    :meth:`FiniteGroup.normal_subgroups`.  The pair-order predicates
    :func:`is_cp2` and :func:`is_cp3` are decided on all the quotients at
    once from g's own elements and the cosets' orders
    (:func:`quotient_condition_verdicts`), with no quotient group built;
    any other predicate runs on G/N realized as a standalone group by
    :meth:`FiniteGroup.quotient`.  Neither builds a table, so no quotient
    order is capped beyond the group's own.
    """
    normals = g.normal_subgroups(cap=cap)
    condition = _pair_condition(predicate)
    if condition is not None:
        holds = quotient_condition_verdicts(g, normals, condition).tolist()
    else:
        holds = [_predicate_holds(predicate, g.quotient(normal)) for normal in normals]
    rows = tuple(
        QuotientScanRow(normal=normal, quotient_order=g.order // normal.size, holds=ok)
        for normal, ok in zip(normals, holds)
    )
    return QuotientScanReport(parent_holds=_predicate_holds(predicate, g), rows=rows)
