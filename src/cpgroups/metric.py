"""The order distance d(x,y) = o(x y^-1) - 1 and the CP class predicates.

d is a metric on G exactly when every pair satisfies the strict order
inequality o(ab) < o(a) + o(b) (class CP3), and an ultrametric exactly when
o(ab) <= max(o(a), o(b)) (class CP2).  CP is the class where every element
order is a prime power.  All pair scans are exhaustive, vectorized over
blocks of rows that start near 4096 pairs and double up to 2^20 pairs, and
report the lexicographically smallest violating pair of each condition;
one scan forms each block's products once for every condition it tests,
so CP2 and CP3 are decided together.  Classification reads only the order
table, one count of its distinct orders and these scans; the n x n
distance matrix is built only for the CSV export and the raw triangle
audit.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import (
    CHECK_ENTRIES,
    TABLE_LIMIT,
    CapExceededError,
    FiniteGroup,
    _once,
    distinct_primes,
    rows_per_block,
)

AUDIT_CAP = 60


@dataclass(frozen=True)
class Witness:
    """A pair (a, b) certifying that a class condition fails.

    For CP the witness is a single element of non-prime-power order (the b
    fields repeat the a fields) and ``parts`` carries two commuting powers
    whose orders are distinct primes p and q with product order p*q.
    """

    a_index: int
    b_index: int
    a_order: int
    b_order: int
    ab_order: int
    violated: str
    parts: Optional[tuple[tuple[int, int], tuple[int, int]]] = None


def render_witness(g: FiniteGroup, w: Witness) -> str:
    if w.violated == "CP":
        text = f"element {g.label(w.a_index)} has order {w.a_order}"
        if w.parts:
            (p, ai), (q, bi) = w.parts
            text += (
                f"; commuting powers {g.label(ai)} (order {p}) and {g.label(bi)}"
                f" (order {q}) multiply to order {p * q}"
            )
        return text
    rel = ">=" if w.violated == "CP3" else ">"
    bound = "o(a)+o(b)" if w.violated == "CP3" else "max(o(a),o(b))"
    return (
        f"a={g.label(w.a_index)} (order {w.a_order}), b={g.label(w.b_index)}"
        f" (order {w.b_order}): o(ab)={w.ab_order} {rel} {bound}"
    )


# -- distance ------------------------------------------------------------


def distance(g: FiniteGroup, x: int, y: int) -> int:
    """o(x y^-1) - 1; zero exactly when x == y."""
    orders = g.order_table().orders
    return int(orders[g.mul(x, int(g.inv[y]))]) - 1


def distance_matrix(g: FiniteGroup) -> np.ndarray:
    """Full n x n distance matrix (symmetric, zero diagonal), for the CSV
    export and the raw triangle audit; capped at TABLE_LIMIT, the cap on
    n x n arrays, as a Cayley table is.  Held as int32, since no distance
    exceeds the order."""
    if g.order > TABLE_LIMIT:
        raise CapExceededError(
            f"order {g.order} exceeds the distance-matrix cap TABLE_LIMIT={TABLE_LIMIT}"
        )
    n = g.order
    dist = (g.order_table().orders - 1).astype(np.int32)
    d = np.empty((n, n), dtype=np.int32)
    block = rows_per_block(n)
    for lo in range(0, n, block):
        x = np.arange(lo, min(n, lo + block))
        d[x] = dist[g.mul_outer(x)[:, g.inv]]
    return d


# -- pair scans ----------------------------------------------------------

PairCondition = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]

# products in the first block of a pair scan: a group that fails its
# conditions mostly fails them in the first few rows, and one block of a few
# thousand products costs about as much as one of a single row
FIRST_BLOCK_ENTRIES = CHECK_ENTRIES >> 4


def _doubling_blocks(n: int) -> Iterator[np.ndarray]:
    """Consecutive blocks of the rows 0..n-1 of an n x n pair scan: about
    FIRST_BLOCK_ENTRIES products first (one row at least), then twice as
    many rows each time, up to :func:`core.rows_per_block`, so an early hit
    costs one small block and a full scan O(log n) rounds."""
    limit = rows_per_block(n)
    lo, rows = 0, min(limit, max(1, FIRST_BLOCK_ENTRIES // max(n, 1)))
    while lo < n:
        yield np.arange(lo, min(n, lo + rows))
        lo += rows
        rows = min(2 * rows, limit)


def _first_failing_pairs(
    g: FiniteGroup, elements: np.ndarray, conditions: Sequence[tuple[PairCondition, str]]
) -> tuple[Optional[Witness], ...]:
    """For each ``(satisfies, tag)`` of ``conditions``, the first pair (a, b)
    of the given elements, in row-major order, whose orders fail
    ``satisfies(o_a, o_b, o_ab)``, or None.

    Rows a come in :func:`_doubling_blocks`, and each block's products ab are
    formed once for every condition that has no witness yet; the scan stops
    when every condition has one.  ``satisfies`` gets the orders of a
    block's rows as a column, those of all the elements as a row and the
    block x len(elements) orders of the products ab, and returns a boolean
    array of that shape (or one that broadcasts to it).
    """
    orders = g.order_table().orders
    element_orders = orders[elements]
    witnesses: list[Optional[Witness]] = [None] * len(conditions)
    pending = list(range(len(conditions)))
    for rows in _doubling_blocks(len(elements)):
        a = elements[rows]
        oab = orders[g.mul_outer(a, elements)]
        oa, ob = element_orders[rows][:, None], element_orders[None, :]
        for k in list(pending):
            satisfies, tag = conditions[k]
            ok = np.asarray(satisfies(oa, ob, oab), dtype=bool)
            if ok.shape != oab.shape:
                ok = np.broadcast_to(ok, oab.shape)
            if not ok.all():
                i, j = divmod(int(np.argmin(ok)), len(elements))
                witnesses[k] = Witness(
                    a_index=int(a[i]),
                    b_index=int(elements[j]),
                    a_order=int(oa[i, 0]),
                    b_order=int(ob[0, j]),
                    ab_order=int(oab[i, j]),
                    violated=tag,
                )
                pending.remove(k)
        if not pending:
            break
    return tuple(witnesses)


def scan_pair_order_condition(
    g: FiniteGroup, satisfies: PairCondition, tag: str = "custom"
) -> tuple[bool, Optional[Witness]]:
    """Exhaustive pair scan against a pluggable order condition.

    Rows a are taken in blocks of about FIRST_BLOCK_ENTRIES products first
    that then double up to 2^20 pairs, so an early witness costs one small
    block and a full scan O(log n) rounds.  ``satisfies(o_a, o_b, o_ab)``
    gets the orders of a block's rows as a column, all orders as a row and
    the block x n orders of the products ab, and must return a boolean
    array of that shape (or one that broadcasts to it); the scan reports
    the lexicographically smallest failing pair
    (:func:`_first_failing_pairs`).  This is the hook for user-supplied
    classes beyond CP2/CP3; it is not cached.
    """
    (witness,) = _first_failing_pairs(g, np.arange(g.order), [(satisfies, tag)])
    return witness is None, witness


def cp3_pair_holds(oa, ob, oab) -> np.ndarray:
    """The CP3 inequality o(ab) < o(a) + o(b), elementwise over broadcast arrays."""
    return oab < oa + ob


def cp2_pair_holds(oa, ob, oab) -> np.ndarray:
    """The CP2 inequality o(ab) <= max(o(a), o(b)), elementwise over broadcast arrays."""
    return oab <= np.maximum(oa, ob)


@_once
def _cp2_cp3_witnesses(g: FiniteGroup) -> tuple[Optional[Witness], ...]:
    """The CP2 and CP3 witnesses of g, from one scan of its pairs; cached.
    A pair that fails CP3 fails CP2 too, so a group that fails CP3 is done
    when the block holding the CP3 witness is."""
    elements = np.arange(g.order)
    return _first_failing_pairs(g, elements, [(cp2_pair_holds, "CP2"), (cp3_pair_holds, "CP3")])


@_once
def is_cp3(g: FiniteGroup) -> tuple[bool, Optional[Witness]]:
    """Strict triangle condition o(ab) < o(a) + o(b) for all pairs; cached."""
    witness = _cp2_cp3_witnesses(g)[1]
    return witness is None, witness


@_once
def is_cp2(g: FiniteGroup) -> tuple[bool, Optional[Witness]]:
    """Ultrametric condition o(ab) <= max(o(a), o(b)) for all pairs; cached."""
    witness = _cp2_cp3_witnesses(g)[0]
    return witness is None, witness


# The pair-order predicates with the pair conditions that decide them.
PAIR_CONDITIONS: tuple[tuple[Callable, PairCondition], ...] = (
    (is_cp2, cp2_pair_holds),
    (is_cp3, cp3_pair_holds),
)


@_once
def _order_counts(g: FiniteGroup) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The element-order multiset of g as (order, count) pairs, ascending,
    and the orders in it that are neither 1 nor a prime power: one count of
    the order table, on the first call."""
    values, counts = np.unique(g.order_table().orders, return_counts=True)
    multiset = tuple(zip(values.tolist(), counts.tolist()))
    return multiset, tuple(m for m, _ in multiset if len(distinct_primes(m)) >= 2)


def non_prime_power_elements(g: FiniteGroup) -> np.ndarray:
    """Mask of the elements whose order is neither 1 nor a prime power: the
    bad orders of :func:`_order_counts`, looked up by each element's order."""
    ot = g.order_table()
    bad = np.zeros(ot.max_order + 1, dtype=bool)
    bad[list(_order_counts(g)[1])] = True
    return bad[ot.orders]


def is_cp(g: FiniteGroup) -> tuple[bool, Optional[Witness]]:
    """Every element order is 1 or a prime power.

    The witness element x of order m = p^a * q^b * ... comes with the
    commuting powers x^(m/p) and x^(m/q), whose product has order p*q; that
    product certifies the CP3 failure this implies.
    """
    if not _order_counts(g)[1]:
        return True, None
    orders = g.order_table().orders
    x = int(np.argmax(non_prime_power_elements(g)))
    m = int(orders[x])
    p, q = distinct_primes(m)[:2]
    a = g.power(x, m // p)
    b = g.power(x, m // q)
    ab = g.mul(a, b)
    if int(orders[a]) != p or int(orders[b]) != q or int(orders[ab]) != p * q:
        raise RuntimeError("CP witness construction failed its self-check")
    return False, Witness(
        a_index=x,
        b_index=x,
        a_order=m,
        b_order=m,
        ab_order=m,
        violated="CP",
        parts=((p, a), (q, b)),
    )


def involution_product_witness(g: FiniteGroup, threshold: int = 3) -> Optional[Witness]:
    """Smallest pair of order-2 elements whose product order exceeds threshold,
    the first in row-major order over the involutions."""
    involutions = np.flatnonzero(g.order_table().orders == 2)
    (witness,) = _first_failing_pairs(g, involutions, [(lambda oa, ob, oab: oab <= threshold, "CP3")])
    return witness


# -- metric axioms ---------------------------------------------------------


@dataclass(frozen=True)
class MetricAxioms:
    """Exhaustive axiom check results for the order distance."""

    identity: bool
    symmetry: bool
    triangle: bool
    ultrametric: bool
    triangle_witness: Optional[Witness]
    ultrametric_witness: Optional[Witness]
    violating_triple: Optional[tuple[int, int, int]]
    audited: bool


def triangle_audit(g: FiniteGroup) -> bool:
    """Raw O(n^3) check of d(x,z) <= d(x,y) + d(y,z) over all triples."""
    if g.order > AUDIT_CAP:
        raise CapExceededError(f"triangle audit is restricted to order <= {AUDIT_CAP}")
    d = distance_matrix(g)
    return bool((d[:, None, :] <= d[:, :, None] + d[None, :, :]).all())


def check_metric_axioms(g: FiniteGroup, audit: bool = False) -> MetricAxioms:
    """Verify identity, symmetry and the triangle inequality exhaustively.

    Identity and symmetry are read off the order table, since
    d(x,y) = o(x y^-1) - 1: d(x,y) = 0 iff x y^-1 = e iff x = y when the
    identity alone has order 1, and d(y,x) = o((x y^-1)^-1) - 1 = d(x,y)
    when every inverse has its element's order.  The triangle axiom is
    decided through the pair reduction (a = x y^-1, b = y z^-1 turns the
    triple inequality into o(ab) < o(a) + o(b)) and the ultrametric one
    likewise; with ``audit`` the raw all-triples check is run as well
    (order <= 60) and cross-checked against the reduction.
    """
    orders = g.order_table().orders
    identity_ok = bool(orders[0] == 1 and (orders[1:] > 1).all())
    symmetry_ok = bool(np.array_equal(orders, orders[g.inv]))
    cp3_ok, cp3_wit = is_cp3(g)
    cp2_ok, cp2_wit = is_cp2(g)
    triple = None
    if cp3_wit is not None:
        triple = (cp3_wit.a_index, 0, int(g.inv[cp3_wit.b_index]))
    audited = False
    if audit:
        raw = triangle_audit(g)
        if raw != cp3_ok:
            raise RuntimeError("raw triangle audit disagrees with the pair reduction")
        audited = True
    return MetricAxioms(
        identity=identity_ok,
        symmetry=symmetry_ok,
        triangle=cp3_ok,
        ultrametric=cp2_ok,
        triangle_witness=cp3_wit,
        ultrametric_witness=cp2_wit,
        violating_triple=triple,
        audited=audited,
    )


# -- p-group layers ----------------------------------------------------------


@dataclass(frozen=True)
class LayerRow:
    i: int
    threshold: int
    size: int
    is_subgroup: bool
    is_normal: bool


@dataclass(frozen=True)
class LayerReport:
    p: Union[int, str]
    rows: tuple[LayerRow, ...]
    all_normal: bool


def layer_check(g: FiniteGroup) -> LayerReport:
    """For a p-group of order p^n, test each order layer {x : o(x) <= p^i}.

    Every layer of a CP3 p-group must be a normal subgroup; the report says
    which layers are subgroups and which are normal, each layer certified
    from its generators (:meth:`FiniteGroup._certify`).
    """
    p = g.is_p_group()
    if p is None:
        raise ValueError(f"{g.name} is not a p-group")
    if p == "trivial":
        row = LayerRow(i=0, threshold=1, size=1, is_subgroup=True, is_normal=True)
        return LayerReport(p=p, rows=(row,), all_normal=True)
    orders = g.order_table().orders
    k = 0
    while p**k < g.order:
        k += 1
    thresholds = [p**i for i in range(k + 1)]
    rows = []
    for i, t in enumerate(thresholds):
        members = orders <= t
        closed, normal, _ = g._certify(members)
        rows.append(LayerRow(i, t, int(members.sum()), is_subgroup=closed, is_normal=normal))
    return LayerReport(p=p, rows=tuple(rows), all_normal=all(r.is_normal for r in rows))


# -- aggregated classification ------------------------------------------------


@dataclass(frozen=True)
class ClassReport:
    """The classification of one group (:func:`classify`).

    ``derived_length`` counts the terms of the derived series
    (:meth:`FiniteGroup.derived_series`) down to where it stabilizes, G
    itself included, as the ``derived_length`` record and the text
    report's "derived series length" print it.  For a solvable group that
    is one more than the derived length: ``dihedral:1024``, of derived
    length 2, reads 3.
    """

    name: str
    order: int
    in_cp: bool
    in_cp2: bool
    in_cp3: bool
    cp_witness: Optional[Witness]
    cp2_witness: Optional[Witness]
    cp3_witness: Optional[Witness]
    metric: MetricAxioms
    solvable: bool
    derived_length: int
    p_group: Union[int, str, None]
    order_multiset: tuple[tuple[int, int], ...]


def classify(g: FiniteGroup, name: Optional[str] = None, audit: bool = False) -> ClassReport:
    """Run every class predicate and the metric axioms on one group."""
    cp_ok, cp_wit = is_cp(g)
    axioms = check_metric_axioms(g, audit=audit)
    cp3_ok, cp3_wit = axioms.triangle, axioms.triangle_witness
    cp2_ok, cp2_wit = axioms.ultrametric, axioms.ultrametric_witness
    if cp2_ok and not cp3_ok:
        raise RuntimeError(f"{g.name}: hierarchy violated (CP2 without CP3)")
    if cp3_ok and not cp_ok:
        raise RuntimeError(f"{g.name}: hierarchy violated (CP3 without CP)")
    series = g.derived_series()
    return ClassReport(
        name=name or g.name,
        order=g.order,
        in_cp=cp_ok,
        in_cp2=cp2_ok,
        in_cp3=cp3_ok,
        cp_witness=cp_wit,
        cp2_witness=cp2_wit,
        cp3_witness=cp3_wit,
        metric=axioms,
        solvable=series[-1].size == 1,
        derived_length=len(series),
        p_group=g.is_p_group(),
        order_multiset=_order_counts(g)[0],
    )


# -- serialization -----------------------------------------------------------


def _flag(value: bool) -> str:
    return "true" if value else "false"


def report_text(g: FiniteGroup, r: ClassReport) -> str:
    lines = [
        f"group: {r.name}",
        f"order: {r.order}",
        "element orders: " + " ".join(f"{v}^{c}" for v, c in r.order_multiset),
        f"cp: {_flag(r.in_cp)}" + (f"  [{render_witness(g, r.cp_witness)}]" if r.cp_witness else ""),
        f"cp2: {_flag(r.in_cp2)}" + (f"  [{render_witness(g, r.cp2_witness)}]" if r.cp2_witness else ""),
        f"cp3: {_flag(r.in_cp3)}" + (f"  [{render_witness(g, r.cp3_witness)}]" if r.cp3_witness else ""),
        (
            "metric axioms: identity="
            + _flag(r.metric.identity)
            + " symmetry="
            + _flag(r.metric.symmetry)
            + " triangle="
            + _flag(r.metric.triangle)
            + (" (audited)" if r.metric.audited else "")
        ),
        f"ultrametric: {_flag(r.metric.ultrametric)}",
        f"solvable: {_flag(r.solvable)} (derived series length {r.derived_length})",
        "p-group: " + (str(r.p_group) if r.p_group is not None else "no"),
    ]
    return "\n".join(lines)


def report_records(g: FiniteGroup, r: ClassReport) -> str:
    rows = [
        ("name", r.name),
        ("order", r.order),
        ("cp", _flag(r.in_cp)),
        ("cp2", _flag(r.in_cp2)),
        ("cp3", _flag(r.in_cp3)),
        ("metric_identity", _flag(r.metric.identity)),
        ("metric_symmetry", _flag(r.metric.symmetry)),
        ("metric_triangle", _flag(r.metric.triangle)),
        ("ultrametric", _flag(r.metric.ultrametric)),
        ("solvable", _flag(r.solvable)),
        ("derived_length", r.derived_length),
        ("p_group", r.p_group if r.p_group is not None else "-"),
    ]
    for tag, wit in (("cp", r.cp_witness), ("cp2", r.cp2_witness), ("cp3", r.cp3_witness)):
        if wit is not None:
            rows.append((f"{tag}_witness_a", g.label(wit.a_index)))
            rows.append((f"{tag}_witness_b", g.label(wit.b_index)))
            rows.append((f"{tag}_witness_orders", f"{wit.a_order},{wit.b_order},{wit.ab_order}"))
    return "\n".join(f"{k}={v}" for k, v in rows)


def _csv_cell(field: str) -> str:
    """A field as :mod:`csv` writes it within a row of several fields
    (quoted where it holds a comma, a quote or a newline)."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([field, ""])
    return buf.getvalue()[: -len(",\n")]


def write_distance_csv(g: FiniteGroup, d: np.ndarray, stream) -> None:
    """The distance matrix d of g (:func:`distance_matrix`) as CSV, one row
    at a time: a header row of element labels, then one row per element.

    Labels are quoted as :mod:`csv` quotes them; the numbers of a row are
    formatted with one join over the decimal strings of 0..max(d).
    """
    cells = [_csv_cell(label) for label in g.labels]
    stream.write(",".join([""] + cells) + "\n")
    decimals = np.array([str(v) for v in range(int(d.max(initial=0)) + 1)], dtype=object)
    for cell, row in zip(cells, d):
        stream.write(cell + "," + ",".join(decimals[row]) + "\n")
