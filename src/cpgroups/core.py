"""Finite groups on indexed elements, identity at index 0.

A group multiplies through its :class:`Backend`, which holds the inverses,
one broadcasting ``mul_pairs`` and the element orders; :meth:`FiniteGroup.mul`,
:meth:`FiniteGroup.mul_pairs` and :meth:`FiniteGroup.mul_outer` are written
once on top of it, and every other algorithm once on top of them.  Only
user tables (:func:`from_cayley`) hold a Cayley table, of at most TABLE_LIMIT
rows.  Permutation groups compose image arrays on demand and look each
product up in an element index; the cyclic, dihedral, dicyclic and
elementary abelian families multiply by formula, direct products through
their factors' backends, and realized subgroups and quotients through
their parent's backend (:class:`_ImageBackend`).  These hold no n x n
array at any order up to ELEMENT_CAP.  The formula families give
their element orders and generators in closed form, and products the lcm
of their factors' orders and their factors' generators; tables,
permutations, realized subgroups and quotients power their elements prime
by prime (:meth:`Backend.orders`) and find generators by a greedy pass
(:meth:`Backend.generators`).  The two backends that are handed an element
set, tables and permutations, validate it through that same pass
(:meth:`Backend.validate`): a permutation set is closed once the products
the pass looks up are all found, and a table is associative once Light's
test passes at every generator the pass keeps.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .perm import Permutation

TABLE_LIMIT = 4096
ELEMENT_CAP = 10000
SUBGROUP_CAP = 400
# entries per block of the vectorized row loops (permutation products,
# distance matrix, pair scans), so a block stays near 8 MB of int64
BLOCK_ENTRIES = 1 << 20
# permutation images a closure may hold (:func:`generate_group`): the
# entries of the largest Cayley table that TABLE_LIMIT admits
IMAGE_ENTRIES = TABLE_LIMIT * TABLE_LIMIT
# products per block of the element-set checks (closure, pair conditions,
# commutativity; :func:`_size_blocks`); a sixteenth of
# BLOCK_ENTRIES keeps a block's int64 temporaries near 512 KB each, so
# checking sets in batches needs no more memory than checking them one at
# a time
CHECK_ENTRIES = BLOCK_ENTRIES >> 4
# A normal subgroup is a union of conjugacy classes, so a group with at most
# this many nontrivial classes has at most 2^20 of them whatever its order;
# FiniteGroup.normal_subgroups applies its order cap only above this count.
NORMAL_CLASS_LIMIT = 20
# A permutation index (:class:`_PermIndex`) keys rows by their images of a
# prefix of points, as int64 mixed-radix numbers below INDEX_KEY_RANGE; it
# keeps a direct int32 array from key to element (4 MB at most) where the
# keys take at most DIRECT_INDEX_ENTRIES values.
INDEX_KEY_RANGE = 1 << 62
DIRECT_INDEX_ENTRIES = 1 << 20

# the label of an element from its index (see FiniteGroup.__init__)
LabelFn = Callable[[int], str]


def _once(compute: Callable[["FiniteGroup"], object]) -> Callable:
    """A per-group result, computed by ``compute(group)`` on the first call
    and then kept in the group's ``_cache``, keyed by ``compute`` itself.
    Every cached result of a group goes through here: the methods of
    :class:`FiniteGroup` and the module functions of :mod:`metric` and
    :mod:`subgroups` that take a group and nothing else."""

    @functools.wraps(compute)
    def cached(group):
        try:
            return group._cache[compute]
        except KeyError:
            result = group._cache[compute] = compute(group)
            return result

    return cached


class CapExceededError(RuntimeError):
    """A desk-scale cap (element count, table size, enumeration bound) was exceeded."""


def check_element_cap(order: int, what: str = "order") -> None:
    """Refuse a group of more than ELEMENT_CAP elements before any array of them is allocated."""
    if order > ELEMENT_CAP:
        raise CapExceededError(f"{what} {order} exceeds the element cap ELEMENT_CAP={ELEMENT_CAP}")


def capped_product(factors: Iterable[int]) -> int:
    """The product of the factors (each at least 1), an order checked by
    :func:`check_element_cap`.  It is refused as soon as it has more digits
    than Python converts to a string, so 3000000! is never formed in full."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300
    bound, product = 10**digits, 1
    for factor in factors:
        product *= factor
        if product >= bound:
            raise CapExceededError(f"order of more than {digits} digits exceeds the element cap ELEMENT_CAP={ELEMENT_CAP}")
    check_element_cap(product)
    return product


def rows_per_block(width: int) -> int:
    """Rows of a given width that fit in one block of BLOCK_ENTRIES entries (at least one)."""
    return max(1, BLOCK_ENTRIES // max(width, 1))


def distinct_primes(n: int) -> tuple[int, ...]:
    """Distinct prime factors of n, ascending (empty for n = 1)."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def is_prime(n: int) -> bool:
    return n > 1 and distinct_primes(n) == (n,)


def prime_power_flag(n: int) -> Union[int, str, None]:
    """The prime p when n = p^k with k >= 1, the flag "trivial" for n = 1, else None."""
    if n == 1:
        return "trivial"
    primes = distinct_primes(n)
    return primes[0] if len(primes) == 1 else None


@dataclass(frozen=True, slots=True)
class SubgroupSet:
    """Subgroup of an ambient group, stored as a bitset over element indices."""

    mask: int
    size: int

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "SubgroupSet":
        """The set of the given element indices; repeats count once."""
        idx = np.fromiter(indices, dtype=np.int64)
        if idx.size and idx.min() < 0:
            raise ValueError("element indices must be nonnegative")
        members = np.zeros((1, int(idx.max()) + 1 if idx.size else 1), dtype=bool)
        members[0, idx] = True
        return _subgroup_sets(_words(members), members.sum(axis=1))[0]

    def indices(self) -> np.ndarray:
        n = max(self.mask.bit_length(), 1)
        return np.flatnonzero(_members(_subgroup_words([self], n)[0], n))

    def contains(self, i: int) -> bool:
        return bool((self.mask >> int(i)) & 1)

    def hex(self) -> str:
        return format(self.mask, "x")


def _words(rows: np.ndarray) -> np.ndarray:
    """Boolean rows packed to bits, in whole little-endian 64-bit words: bit
    i of a row is bit i % 64 of its word i // 64, as in a SubgroupSet mask.
    Only this module packs and unpacks the layout."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    m, nbytes = packed.shape
    words = np.zeros((m, -(-nbytes // 8) * 8), dtype=np.uint8)
    words[:, :nbytes] = packed
    return words.view("<u8")


def _members(words: np.ndarray, n: int) -> np.ndarray:
    """The boolean member rows, n columns each, of rows packed by :func:`_words`."""
    return np.unpackbits(words.view(np.uint8), axis=1, count=n, bitorder="little").view(bool)


def _sorted_subgroups(words: np.ndarray, sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of words (:func:`_words`) and their sizes, sorted by (size, bitset)."""
    # the last word holds the highest bits
    order = np.lexsort([*words.T, sizes])
    return words[order], sizes[order]


def _subgroup_sets(words: np.ndarray, sizes: np.ndarray) -> list[SubgroupSet]:
    """The SubgroupSets of rows of words (:func:`_words`) with the given sizes."""
    raw, nbytes = words.tobytes(), 8 * words.shape[1]
    return [
        SubgroupSet(mask=int.from_bytes(raw[at : at + nbytes], "little"), size=s)
        for at, s in zip(range(0, len(raw), nbytes), sizes.tolist())
    ]


def _subgroup_words(subs: list[SubgroupSet], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The bitsets of subgroups of a group of order n packed to words, as
    :func:`_words` packs member rows, and their sizes."""
    nbytes = 8 * -(-n // 64)
    raw = b"".join(s.mask.to_bytes(nbytes, "little") for s in subs)
    words = np.frombuffer(raw, dtype="<u8").reshape(len(subs), nbytes // 8)
    return words, np.array([s.size for s in subs], dtype=np.int64)


def _size_blocks(
    g: "FiniteGroup", words: np.ndarray, sizes: np.ndarray
) -> Iterator[tuple[slice, np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Element sets in blocks of one size s, from their member rows packed to
    words (:func:`_words`); each run of consecutive rows of one size is cut
    into blocks, so rows sorted by size make the fewest blocks.

    Yields, per block of k sets and slice of r of their members: the
    block's slice, its k x |G| member mask, the slice's members x as a
    k x r x 1 array, all members y as a k x 1 x s array and the k x r x s
    products x * y, formed by one :meth:`FiniteGroup.mul_pairs`.  Sets with
    s^2 <= CHECK_ENTRIES come whole (r = s), as many to a block as fit; a
    larger set comes alone, its s x s square cut into slices of
    CHECK_ENTRIES // s rows.  So a block holds at most max(CHECK_ENTRIES, s)
    products, and its temporaries stay within a few megabytes whatever the
    size of the sets.
    """
    if not len(sizes):
        return
    ends = (np.flatnonzero(np.diff(sizes)) + 1).tolist()
    for start, end in zip([0] + ends, ends + [len(sizes)]):
        s = int(sizes[start])
        step = max(1, CHECK_ENTRIES // (s * s))
        width = max(1, CHECK_ENTRIES // s)
        for lo in range(start, end, step):
            block = slice(lo, min(end, lo + step))
            members = _members(words[block], g.order)
            idx = np.nonzero(members)[1].reshape(-1, s)
            for top in range(0, s, width):
                x, y = idx[:, top : top + width, None], idx[:, None, :]
                yield block, members, x, y, g.mul_pairs(x, y)


def closure_verdicts(g: "FiniteGroup", words: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Per element set, one row of words each (:func:`_words`) with its
    size: whether it is closed under multiplication.

    This is the check of sets that come in batches with no generators, the
    rows of the subgroup lattice; a single set is certified from its
    generators instead (:meth:`FiniteGroup._certify`).  The products of
    :func:`_size_blocks` are looked up in the members.  A set of all |G|
    elements is closed as it stands, so only the proper sets are multiplied.
    """
    closed = np.ones(len(sizes), dtype=bool)
    proper = np.flatnonzero(sizes != g.order)
    for block, members, _, _, prods in _size_blocks(g, words[proper], sizes[proper]):
        k = len(members)
        # row r of members, flattened, starts at r * |G|
        starts = np.arange(k)[:, None, None] * g.order
        closed[proper[block]] &= members.ravel()[prods + starts].reshape(k, -1).all(axis=1)
    return closed


def _orbit_roots(maps: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The smallest point of each point's component in the graph of the
    edges starts[e] -- maps[e], whose points 0, 1, ... each start an edge.
    With permutations of n points in the rows of ``maps`` and starts =
    arange(n), the components are the orbits of the permutations.

    Hooking and pointer jumping: every point holds a root, a point of its
    component no larger than itself.  Each round hooks, for every edge
    whose ends hold different roots, the larger root onto the smaller,
    then jumps each point to its root's root until every point holds a
    root of its own.  The rounds stop when every edge joins equal roots;
    the smallest point of a component is never hooked, so it is then the
    root of the whole component.
    """
    root = np.arange(int(starts.max()) + 1)
    while True:
        ends, begins = root[maps], root[starts]
        lo, hi = np.minimum(begins, ends), np.maximum(begins, ends)
        moved = lo != hi
        if not moved.any():
            return root
        np.minimum.at(root, hi[moved], lo[moved])
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]


def _coset_roots(maps: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """For each row S of ``gens`` and each point x, the smallest point of
    x<S>: one row of n points, in the dtype of ``maps``, per row of gens.
    Row s of ``maps`` is the map x -> x*s of right multiplication by an
    element s, on n points, and a row of gens lists rows of maps.

    x<S> is the orbit of x under the maps of S, so its smallest point is
    the root of x in the graph of the edges x -- x*s (:func:`_orbit_roots`),
    and a row's zeros are <S>.  Rows come in blocks, each block one graph,
    its rows' points offset by n, of as many rows as keep its |S| * n edges
    within CHECK_ENTRIES // 4 (one row at least): the hooking holds about
    four int64 arrays of one entry per edge, so a block's temporaries stay
    near those of a block of products of the element-set checks.
    """
    n = maps.shape[1]
    ar = np.arange(n)
    out = np.empty((len(gens), n), dtype=maps.dtype)
    step = max(1, CHECK_ENTRIES // 4 // max(1, n * gens.shape[1]))
    for lo in range(0, len(gens), step):
        block = gens[lo : lo + step]
        offsets = np.arange(len(block))[:, None, None] * n
        roots = _orbit_roots(maps[block] + offsets, ar + offsets)
        out[lo : lo + step] = roots.reshape(-1, n) - offsets[:, 0]
    return out


def _canonical_joins(
    width: int, atoms: np.ndarray, below: np.ndarray, join: Callable[..., np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    r"""Every set that a join makes from {0} and the atoms, each made once,
    as a boolean row of ``width`` points packed to words (:func:`_words`),
    and its size.

    Orderly generation by canonical parents (Read 1978; McKay 1998).  A set
    K has the chain c1 = min(K \ {0}), c(i+1) = min(K \ <c1..ci>), where
    <...> is the join, each ci one of the ascending ``atoms``, and its
    parent is the join of the chain without its last element.  Breadth
    first from {0}, a set H whose chain ends in ``last`` (none for {0}) is
    joined with the atoms a > last outside H, and K = <H, a> is kept only
    when min(K \ H) == a; K's chain is then H's chain and a, so every set
    comes once, as the child of its parent.  Row t of ``below``, packed to
    words, holds points that keep atom t from H, among them one of every H
    that holds t: a frontier row that meets it is left out of a's batch
    before any join.  A level's rows come in the order of their ``last``,
    so the rows with last < a are a prefix of the level.

    The chains are held as int32 atom numbers, one level-wide array a
    level, L columns at level L, gathered once a level from the parents'
    rows; the last column is ``last``.  ``join(t, rows, chains, sel)``
    gets the batch of atom t: the selected rows (a copy, which it may
    change and return), the level's chains and the batch's row numbers in
    the level; it returns the rows of the joins <H, a>.
    """
    frontier = np.arange(width)[None] == 0
    chains = np.zeros((1, 0), dtype=np.int32)
    levels, sizes = [], []
    while True:
        levels.append(_words(frontier))
        sizes.append(frontier.sum(axis=1))
        columns = np.ascontiguousarray(levels[-1].T)
        last = chains[:, -1] if chains.shape[1] else np.full(1, -1)
        new_rows, parents, new_atoms = [], [], []
        for t, (a, below_word) in enumerate(zip(atoms.tolist(), below)):
            end = int(np.searchsorted(last, t))
            # of the rows with last < a, those that meet none of a's
            # ``below``, one 64-bit word of every row at a time
            meets = np.zeros(end, dtype=bool)
            for column, bw in zip(columns[:, :end], below_word):
                meets |= (column & bw) != 0
            sel = np.flatnonzero(~meets)
            if not sel.size:
                continue
            joined = join(t, frontier[sel], chains, sel)
            # min(K \ H) == a: the join adds no point below a
            keep = ~(joined[:, :a] > frontier[sel, :a]).any(axis=1)
            new_rows.append(joined[keep])
            parents.append(sel[keep])
            new_atoms.append(np.full(int(keep.sum()), t, dtype=np.int32))
        if not new_rows:
            return np.concatenate(levels), np.concatenate(sizes)
        frontier = np.concatenate(new_rows)
        chains = np.column_stack([chains[np.concatenate(parents)], np.concatenate(new_atoms)])


@dataclass(frozen=True, eq=False)
class OrderTable:
    """Element orders of a group: orders[i] = least k >= 1 with i^k = identity."""

    orders: np.ndarray
    max_order: int
    primes: tuple[int, ...]


def _perm_dtype(degree: int):
    """The smallest unsigned dtype that holds every point 0..degree-1."""
    return np.min_scalar_type(degree - 1)


class _PermIndex:
    """Maps permutation image arrays back to element indices.

    The key of a row is the mixed-radix number of its images of the points
    0..k-1, for the shortest of k = 3, 6 and the widest prefix with keys
    below INDEX_KEY_RANGE that separates all elements (3 points suffice for
    sharply 3-transitive actions).  Where the keys take at most
    DIRECT_INDEX_ENTRIES values (degree**k of them), an int32 array from key
    to element makes a lookup one gather, and an unknown key reads -1:
    S7 and A7 at k = 6 (117,649 entries), PSL(2,17) at k = 3 (5832).  Wider
    keys are found by binary search in the sorted keys; when no prefix
    separates the elements, whole rows are looked up by their bytes, and
    repeated rows raise ValueError.  Every lookup then compares the found
    elements' rows with the given ones.
    """

    def __init__(self, perms: np.ndarray):
        n, deg = perms.shape
        self._perms = perms
        self._direct = self._sorted = self._bybytes = None
        max_k = 0
        while max_k < deg and deg ** (max_k + 1) <= INDEX_KEY_RANGE:
            max_k += 1
        ar = np.arange(n, dtype=np.int32)
        for k in sorted({min(3, max_k), min(6, max_k), max_k} - {0}):
            self._k = k
            keys = self._keys(perms)
            if deg**k <= DIRECT_INDEX_ENTRIES:
                direct = np.full(deg**k, -1, dtype=np.int32)
                direct[keys] = ar
                # a repeated key keeps only its last element
                if np.array_equal(direct[keys], ar):
                    self._direct = direct
                    break
            else:
                order = np.argsort(keys, kind="stable")
                if (np.diff(keys[order]) != 0).all():
                    self._sorted = (keys[order], order)
                    break
        if self._direct is None and self._sorted is None:
            # repeated rows share a key at every k, so they all end up here
            self._bybytes = {perms[i].tobytes(): i for i in range(n)}
            if len(self._bybytes) != n:
                raise ValueError("the permutations are not distinct")

    def _keys(self, rows: np.ndarray) -> np.ndarray:
        """Mixed-radix keys of the rows' first k images, the image of point
        k-1 the most significant digit: one call, however few the rows."""
        digits = rows[:, self._k - 1 :: -1].T
        return np.ravel_multi_index(digits, (self._perms.shape[1],) * self._k)

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Indices of the given image arrays; raises if any row is unknown."""
        if self._direct is not None:
            idx = self._direct[self._keys(rows)].astype(np.int64)
            if (idx < 0).any():
                raise RuntimeError("product fell outside the element set")
        elif self._sorted is not None:
            sorted_keys, order = self._sorted
            keys = self._keys(rows)
            pos = np.searchsorted(sorted_keys, keys)
            if (pos >= len(sorted_keys)).any() or (sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] != keys).any():
                raise RuntimeError("product fell outside the element set")
            idx = order[pos]
        else:
            try:
                idx = np.fromiter(
                    (self._bybytes[row.tobytes()] for row in rows), np.int64, len(rows)
                )
            except KeyError:
                raise RuntimeError("product fell outside the element set") from None
        if (self._perms[idx] != rows).any():
            raise RuntimeError("element index lookup mismatch")
        return idx


class Backend:
    """How a group multiplies its element indices: the order, the inverse
    map ``inv``, one broadcasting :meth:`mul_pairs` and the element orders
    :meth:`orders`.  ``width`` is the number of entries one product takes
    while it is formed (the degree of a permutation), which sizes the row
    blocks of :meth:`FiniteGroup.mul_outer`; ``table`` and ``perms`` are the
    Cayley table and the permutation images where a backend holds them.

    :meth:`orders` powers the elements prime by prime through
    :meth:`mul_pairs`, and :meth:`generators` runs the greedy pass of
    :meth:`FiniteGroup._grow` over every element; a backend whose orders or
    generators have a closed form (the formula families, and products
    through their factors) overrides them and forms no product."""

    width = 1
    table: Optional[np.ndarray] = None
    perms: Optional[np.ndarray] = None

    def mul_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise products of two int64 index arrays broadcast together, or of two ints."""
        raise NotImplementedError

    def powers(self, x: Union[int, np.ndarray], k: int) -> Union[int, np.ndarray]:
        """x^k for an element x, or x[i]^k for every entry of an int64 index
        array, k >= 0, by repeated squaring: one :meth:`mul_pairs` round per
        squaring and per set bit of k after the lowest.  k = 1 returns x
        itself, and k = 0 the identity in x's shape."""
        if k < 0:
            raise ValueError("negative powers: use inv[] first")
        base, acc = x, None
        while k:
            if k & 1:
                acc = base if acc is None else self.mul_pairs(acc, base)
            k >>= 1
            if k:
                base = self.mul_pairs(base, base)
        return np.zeros_like(base) if acc is None else acc

    def orders(self) -> np.ndarray:
        """Every element's order as int64, one prime at a time: for each
        prime power p^e exactly dividing the order n, y = x^(n/p^e) has
        order the p-part of o(x), and that is p^k for the number k of p-th
        powers that take y to the identity.  All elements advance at once
        through :meth:`powers`, so this costs O(omega(n) log n)
        :meth:`mul_pairs` rounds, not max o(x)."""
        n = self.order
        orders = np.ones(n, dtype=np.int64)
        for p in distinct_primes(n):
            e, rest = 0, n
            while rest % p == 0:
                e, rest = e + 1, rest // p
            pending = np.arange(n)
            y = self.powers(pending, rest)
            for _ in range(e):
                keep = y != 0
                pending, y = pending[keep], y[keep]
                if not pending.size:
                    break
                orders[pending] *= p
                y = self.powers(y, p)
            if (y != 0).any():
                raise RuntimeError("element order does not divide group order")
        return orders

    def generators(self, group: "FiniteGroup") -> list[int]:
        """Generators of the whole group: the greedy pass of
        :meth:`FiniteGroup._grow` over the elements in index order, through
        ``group``'s products."""
        members = np.zeros(self.order, dtype=bool)
        members[0] = True
        return group._grow(members, [], np.arange(1, self.order))

    def validate(self, group: "FiniteGroup") -> None:
        """Group axioms that need the group's own algorithms, checked at
        construction; a formula needs none.  The backends handed an element
        set (:class:`TableBackend`, :class:`PermBackend`) check it through
        the cached greedy pass of :meth:`FiniteGroup._generators`, so the
        pass runs once for construction and every later reader."""


class TableBackend(Backend):
    """A Cayley table, each product one flat gather.  Built here are the
    checks that need no triple: a square table of entries in range, the
    identity at index 0 and one two-sided inverse per element; the
    table is narrowed to int32 only once its entries are known to fit, and
    an int32 table is kept as given.  :meth:`validate` then decides
    associativity."""

    def __init__(self, table: np.ndarray):
        table = np.asarray(table)
        n = self.order = len(table)
        if table.shape != (n, n):
            raise ValueError(f"table shape {table.shape} does not match order {n}")
        if table.min() < 0 or table.max() >= n:
            raise ValueError("table entry out of range")
        table = np.ascontiguousarray(table, dtype=np.int32)
        table.setflags(write=False)
        self.table = T = table
        ar = np.arange(n)
        if not np.array_equal(T[0], ar) or not np.array_equal(T[:, 0], ar):
            raise ValueError("identity is not at index 0")
        inv = np.argmax(T == 0, axis=1).astype(np.int32)
        if (T[ar, inv] != 0).any() or (T[inv, ar] != 0).any():
            raise ValueError("some element has no two-sided inverse")
        if not ((T == 0).sum(axis=1) == 1).all():
            raise ValueError("some element has more than one right inverse")
        if np.bincount(inv, minlength=n).max() != 1:
            raise ValueError("inverse map is not a bijection")
        self.inv = inv
        self._flat = T.ravel()

    def mul_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # one flat gather: about 2.5x faster than table[a, b]; only arrays are
        # widened, since a scalar's astype costs more than its gather
        out = self._flat[a * self.order + b]
        return out.astype(np.int64) if isinstance(out, np.ndarray) else out

    def validate(self, group: "FiniteGroup") -> None:
        """Associativity, decided exactly by Light's test (Clifford and
        Preston, *The Algebraic Theory of Semigroups* I, 1961, §1.2).

        The set A of the elements a with (xa)y = x(ay) for all x and y holds
        the identity and is closed under products.  The cached greedy pass
        of :meth:`FiniteGroup._generators` closes the reached set under right
        multiplication by its steps, which are products of the kept
        generators, and reaches every element; so once every kept generator
        lies in A (:func:`_associative_at`), every element does.  The pass
        keeps the smallest element outside the subgroup reached so far, and
        while the checked generators lie in A each at least doubles that
        subgroup: at most floor(log2 n) + 1 elements are checked before the
        first that fails, |S| * n^2 lookups in all where all triples take
        n^3."""
        for s in group._generators():
            _associative_at(self.table, s)


class PermBackend(Backend):
    """Permutations, identity first: each product composes image arrays on
    demand and finds the result in an element index (:class:`_PermIndex`),
    so no n x n array is held at any order."""

    def __init__(self, perms: np.ndarray):
        perms = np.ascontiguousarray(perms, dtype=_perm_dtype(perms.shape[1]))
        if not np.array_equal(perms[0], np.arange(perms.shape[1])):
            raise ValueError("identity permutation is not at index 0")
        perms.setflags(write=False)
        self.perms = perms
        self.order, self.width = perms.shape
        self._index = _PermIndex(perms)
        invp = np.empty_like(perms)
        cols = np.arange(self.width, dtype=perms.dtype)
        np.put_along_axis(invp, perms, np.broadcast_to(cols, perms.shape), axis=1)
        self.inv = self._index.lookup(invp).astype(np.int32)

    def mul_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        P = self.perms
        # row x of a*b is b(a(x)): one flat gather, broadcast over a and b,
        # about 2x faster than take_along_axis of the rows of b by those of a
        rows = P.ravel()[np.multiply(b, self.width)[..., None] + P[a]]
        return self._index.lookup(rows.reshape(-1, self.width)).reshape(rows.shape[:-1])

    def validate(self, group: "FiniteGroup") -> None:
        """Closure: the cached greedy pass of :meth:`FiniteGroup._generators`
        looks up each product it forms, which raises on one outside the set,
        and reaches every element, so the set is the group it spans."""
        group._generators()


class ProductBackend(Backend):
    """G x H with (a, b) at index a*|H| + b, each product taken from the
    factors' backends; ``g_gens`` and ``h_gens`` generate the factors."""

    def __init__(self, g: Backend, h: Backend, g_gens: list[int], h_gens: list[int]):
        self._g, self._h = g, h
        self.order = g.order * h.order
        self.width = max(g.width, h.width)
        self.inv = (g.inv[:, None] * h.order + h.inv[None, :]).ravel().astype(np.int32)
        # (a, 1) and (1, b) for the generators a of G and b of H
        self._gens = [a * h.order for a in g_gens] + list(h_gens)

    def mul_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m = self._h.order
        return self._g.mul_pairs(a // m, b // m) * m + self._h.mul_pairs(a % m, b % m)

    def orders(self) -> np.ndarray:
        """o(a, b) = lcm(o(a), o(b)), from each factor's own orders."""
        return np.lcm(self._g.orders()[:, None], self._h.orders()[None, :]).ravel()

    def generators(self, group: "FiniteGroup") -> list[int]:
        """The factors' generators, embedded: they generate G x 1 and 1 x H."""
        return self._gens


class _ImageBackend(Backend):
    """A subgroup or quotient of a group, multiplying through the group's
    backend: element a stands for the parent element reps[a], and a parent
    element x lands on image[x].  A subgroup has its members as reps and
    their positions as image; a quotient has the smallest member of each
    coset as reps and each element's coset as image.  The parent is
    already validated, so the products need no check of their own."""

    def __init__(self, parent: Backend, reps: np.ndarray, image: np.ndarray):
        self._parent, self._reps, self._image = parent, reps, image
        self.order = len(reps)
        self.width = parent.width
        self.inv = image[parent.inv[reps]].astype(np.int32)

    def mul_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._image[self._parent.mul_pairs(self._reps[a], self._reps[b])]


class FiniteGroup:
    """Indexed finite group with total multiplication and identity at index 0.

    Construct through the factory functions (:func:`generate_group`,
    :func:`from_cayley`, :func:`direct_product`, the catalog constructors)
    rather than directly.  Instances are immutable after construction and
    safe to share across threads.
    """

    def __init__(self, backend: Backend, *, labels: Union[Sequence[str], LabelFn], name: str):
        """``backend`` gives the order and the multiplication.  ``labels`` names
        the elements: a function from element index to label, called only
        when :meth:`label` or :attr:`labels` asks for a label, or a list,
        whose ``__getitem__`` is then that function.  A label function holds
        only what it renders from (index arrays, a parent's label function),
        never a group."""
        self.backend = backend
        self.name = name
        n = self.order = backend.order
        if not callable(labels):
            labels = list(labels)
            if len(labels) != n:
                raise ValueError(f"{len(labels)} labels do not match order {n}")
            labels = labels.__getitem__
        self._label = labels
        self._cache: dict = {}
        self.inv = backend.inv
        self.inv.setflags(write=False)
        backend.validate(self)

    # -- multiplication primitives ----------------------------------------

    def mul(self, i: int, j: int) -> int:
        # Python ints, not 0-d arrays: the formulas are several times faster on them
        return int(self.backend.mul_pairs(int(i), int(j)))

    def mul_pairs(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise products of two index arrays, broadcast against each
        other (two equal-length vectors, or a column and a row)."""
        return self.backend.mul_pairs(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    def mul_outer(self, a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
        """Products a[i]*b[j] of two index vectors, as an |a| x |b| array;
        without ``b``, the products a[i]*y for every element y.  Products
        are formed for as many rows of a at a time as keep them within
        BLOCK_ENTRIES entries of the backend's width."""
        a = np.asarray(a, dtype=np.int64)
        b = np.arange(self.order) if b is None else np.asarray(b, dtype=np.int64)
        out = np.empty((len(a), len(b)), dtype=np.int64)
        step = rows_per_block(len(b) * self.backend.width)
        for lo in range(0, len(a), step):
            out[lo : lo + step] = self.mul_pairs(a[lo : lo + step, None], b[None, :])
        return out

    def powers(self, x: np.ndarray, k: int) -> np.ndarray:
        """x[i]^k for every entry of an index vector, k >= 0 (:meth:`Backend.powers`);
        for k = 1 an int64 array x comes back itself, not a copy."""
        return self.backend.powers(np.asarray(x, dtype=np.int64), k)

    def power(self, i: int, k: int) -> int:
        """i^k for k >= 0 (:meth:`Backend.powers` on a Python int: a formula
        backend multiplies ints several times faster than 1-element arrays)."""
        return int(self.backend.powers(int(i), k))

    def label(self, i: int) -> str:
        """The label of element i, rendered on its own."""
        return self._label(int(i))

    @property
    @_once
    def labels(self) -> list[str]:
        """Every element's label in index order, rendered on first access
        and cached."""
        return [self._label(i) for i in range(self.order)]

    @property
    def table(self) -> Optional[np.ndarray]:
        return self.backend.table

    @property
    def perms(self) -> Optional[np.ndarray]:
        return self.backend.perms

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    # -- structural data ---------------------------------------------------

    @_once
    def order_table(self) -> OrderTable:
        """Orders of all elements from :meth:`Backend.orders`; cached after
        the first call.

        The formula families and products of them give their orders in
        closed form with no product; the other backends (also as a factor
        of a product) power the elements prime by prime, in
        O(omega(|G|) log|G|) :meth:`mul_pairs` rounds.  Either way the table
        is checked: only the identity has order 1, every order divides |G|,
        and o(x^-1) = o(x).
        """
        n = self.order
        orders = self.backend.orders()
        if orders[0] != 1 or (orders == 1).sum() != 1:
            raise RuntimeError("identity order table invariant violated")
        if (n % orders != 0).any():
            raise RuntimeError("element order does not divide group order")
        if not np.array_equal(orders, orders[self.inv]):
            raise RuntimeError("order of inverse differs from order of element")
        # by Cauchy's theorem every prime dividing n is the order of an element
        result = OrderTable(orders=orders, max_order=int(orders.max()), primes=distinct_primes(n))
        result.orders.setflags(write=False)
        return result

    @_once
    def conjugacy_classes(self) -> list[np.ndarray]:
        """Conjugation-orbit partition, classes listed by smallest member,
        members ascending; cached.

        The classes are the orbits of the maps x -> t^-1 x t for the
        generators t of :meth:`_generators`, since the generators'
        conjugations generate all the others: 2 * |gens| * |G| products for
        the maps, then :func:`_orbit_roots` on them with no further product.
        Any generating set gives the same orbits, so the closed-form
        generators of the formula families and products give the classes
        the greedy pass would.
        """
        ids = self._class_ids()
        members = np.argsort(ids, kind="stable")
        return np.split(members, np.flatnonzero(np.diff(ids[members])) + 1)

    @_once
    def _class_ids(self) -> np.ndarray:
        """Per element, the position of its class in :meth:`conjugacy_classes`; cached."""
        n = self.order
        gens = np.array(self._generators(), dtype=np.int64)
        inv_gens = self.inv[gens].astype(np.int64)
        maps = np.empty((len(gens), n), dtype=np.int64)
        step = rows_per_block(len(gens) * self.backend.width)
        for lo in range(0, n, step):
            x = np.arange(lo, min(n, lo + step))
            left = self.mul_pairs(inv_gens[:, None], x[None, :])
            maps[:, lo : lo + len(x)] = self.mul_pairs(left, gens[:, None])
        # each orbit's root is its smallest member, so the roots number
        # the classes in the order of their smallest members
        ids = np.unique(_orbit_roots(maps, np.arange(n)), return_inverse=True)[1]
        ids.setflags(write=False)
        return ids

    def center(self) -> np.ndarray:
        """Indices of elements commuting with everything, ascending: the
        singleton classes of the cached :meth:`conjugacy_classes`, with no
        product beyond those of the classes."""
        ids = self._class_ids()
        return np.flatnonzero(np.bincount(ids)[ids] == 1)

    @property
    @_once
    def is_abelian(self) -> bool:
        """Whether the generators (:meth:`_generators`) commute pairwise; cached.
        A formula family or product gives them with no product, so this
        forms only the |gens|^2 products of the check; the other backends
        first run the greedy pass."""
        gens = np.array(self._generators(), dtype=np.int64)
        prods = self.mul_outer(gens, gens)
        return bool(np.array_equal(prods, prods.T))

    def is_p_group(self) -> Union[int, str, None]:
        """The prime p when |G| = p^k, the flag "trivial" for |G| = 1, else None."""
        return prime_power_flag(self.order)

    # -- generated subsets ---------------------------------------------------

    def span(self, generators: Iterable[int]) -> np.ndarray:
        """Sorted indices of the subgroup H generated by the given elements.

        Frontier closure (:meth:`_grow`): the elements are scanned in order
        and kept as generators only when not yet in the span; each element
        of H is then multiplied once by each step (a kept generator or one
        of the repeated squares that come with it), about |H| * |gens| *
        log2|G| products in all, in O(log|G|) vectorized rounds per kept
        generator.
        """
        members = np.zeros(self.order, dtype=bool)
        members[0] = True
        self._grow(members, [], np.array([int(g) for g in generators], dtype=np.int64))
        return np.flatnonzero(members)

    def _grow(self, members: np.ndarray, steps: list[int], candidates: np.ndarray) -> list[int]:
        """Close the subgroup ``members`` under the candidates, in place.

        ``members`` is a boolean mask of a subgroup and ``steps`` the elements
        it was closed under; both grow.  Candidates are taken in order and
        one already in the subgroup is skipped, so only the returned ones
        become generators.  A new generator g joins the steps with its
        repeated squares g^(2^k) for 2^k < |G|, up to the first square that
        is a member or repeats, and so does h*g for the generator h kept just
        before it.  The old members are multiplied by the new steps, then
        each round multiplies only the elements found in the round before by
        every step.  The squares close a cycle of length o(g) in log2 o(g)
        rounds, where g alone would need o(g); those of h*g do the same for
        two generators of small order whose product has a large one, such as
        two reflections of a dihedral group.
        """
        squares = (self.order - 1).bit_length()
        kept: list[int] = []
        fresh = np.zeros(self.order, dtype=bool)
        pending = candidates
        while True:
            pending = pending[~members[pending]]
            if not pending.size:
                return kept
            g = int(pending[0])
            new_steps: list[int] = []
            for power in [g] + [self.mul(h, g) for h in kept[-1:]]:
                for _ in range(squares):
                    if members[power] or power in new_steps:
                        break
                    new_steps.append(power)
                    power = self.mul(power, power)
            kept.append(g)
            steps.extend(new_steps)
            frontier, mult = np.flatnonzero(members), np.array(new_steps, dtype=np.int64)
            all_steps = np.array(steps, dtype=np.int64)
            while frontier.size:
                prods = self.mul_outer(frontier, mult).ravel()
                prods = prods[~members[prods]]
                members[prods] = True
                fresh[prods] = True
                frontier = np.flatnonzero(fresh)
                fresh[frontier] = False
                mult = all_steps

    @_once
    def _generators(self) -> list[int]:
        """Generators of the whole group, distinct and not the identity, from
        :meth:`Backend.generators`; cached.

        The formula families and products of them give theirs in closed form
        with no product; the other backends run the greedy pass
        of :meth:`_grow` over every element, which for permutations and
        tables also serves the checks of construction: closure
        (:meth:`PermBackend.validate`) and associativity
        (:meth:`TableBackend.validate`).
        Every reader needs only some generating set, so its results do not
        depend on which one.
        """
        return self.backend.generators(self)

    def _certify(self, members: np.ndarray) -> tuple[bool, bool, np.ndarray]:
        """Whether the element set with the given member mask is a subgroup
        H, whether a normal one, and generators S of the span of its members.

        S is the greedy pass of :meth:`_grow` over the members, and the set
        is a subgroup iff it equals the span <S> that the pass builds.  H is
        then normal iff t^-1 s t lies in H for every s in S and generator t
        of g (:meth:`_generators`).  The whole group is a normal subgroup as
        it stands, generated by :meth:`_generators`, with no product formed
        once those are known.
        """
        if members.all():
            return True, True, np.array(self._generators(), dtype=np.int64)
        grown = np.zeros(self.order, dtype=bool)
        grown[0] = True
        gens = np.array(self._grow(grown, [], np.flatnonzero(members)), dtype=np.int64)
        if not np.array_equal(grown, members):
            return False, False, gens
        t = np.array(self._generators(), dtype=np.int64)
        conj = self.mul_pairs(self.mul_pairs(self.inv[t][:, None], gens[None, :]), t[:, None])
        return True, bool(members[conj].all()), gens

    @_once
    def derived_series(self) -> list[SubgroupSet]:
        """G >= G' >= G'' ... down to stabilization (trivial iff solvable).

        G^(i+1) is the normal closure in G of the commutators a^-1 b^-1 a b
        of the generator pairs of G^(i): :meth:`_grow` spans them and adds
        each missing conjugate t^-1 h t of a new generator h by a generator
        t of G, since a span holding those is normal.  The generators of G
        are :meth:`_generators`: in closed form for the formula families and
        their products, else the greedy pass of :meth:`_grow` over all
        elements, about |G| * |gens| * log2|G| products.  Each term costs
        about |G^(i+1)| * |gens| * log2|G| products, rather than |G^(i)|^2
        commutators.  The whole group is its own first term, with no member
        array, and each later term is packed from its member mask.
        """
        n = self.order
        series = [SubgroupSet(mask=(1 << n) - 1, size=n)]
        gens = t = np.array(self._generators(), dtype=np.int64)
        while len(gens):
            a, b = (gens[k] for k in np.triu_indices(len(gens), 1))
            comms = self.mul_pairs(self.mul_pairs(self.inv[a], self.inv[b]), self.mul_pairs(a, b))
            nxt = np.zeros(n, dtype=bool)
            nxt[0] = True
            steps: list[int] = []
            kept = new = self._grow(nxt, steps, comms)
            while new:
                conj = self.mul_pairs(self.mul_pairs(self.inv[t][:, None], new), t[:, None])
                new = self._grow(nxt, steps, conj.ravel())
                kept += new
            sizes = nxt.sum(keepdims=True)
            if sizes[0] == series[-1].size:
                break
            series.extend(_subgroup_sets(_words(nxt[None]), sizes))
            gens = np.array(kept, dtype=np.int64)
        return series

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].size == 1

    def _class_products(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The class triples (i, j, l) with K_i K_j meeting K_l, over the
        classes of :meth:`conjugacy_classes`, as three index arrays a block,
        sorted and without repeats; the identity gives (0, j, j).

        The smallest member x_i of each nontrivial class times every element,
        read as class ids, gives for each pair of classes K_i and K_j the
        classes that x_i K_j meets, and those are the classes that K_i K_j
        meets, since (g x g^-1) y = g (x g^-1 y g) g^-1.  A block holds the
        products of as many classes as fit in CHECK_ENTRIES, so the |G|^2
        triples of an abelian group are never held at once.
        """
        ids = self._class_ids()
        k = int(ids.max()) + 1
        yield np.zeros(k, dtype=np.int64), np.arange(k), np.arange(k)
        reps = np.array([int(c[0]) for c in self.conjugacy_classes()], dtype=np.int64)
        step = max(1, CHECK_ENTRIES // self.order)
        for lo in range(1, k, step):
            met = ids[self.mul_outer(reps[lo : lo + step])]
            keys = (np.arange(lo, lo + len(met))[:, None] * k + ids) * k + met
            # sorted, repeats dropped: faster than np.unique, which hashes
            keys = np.sort(keys.ravel())
            yield np.unravel_index(keys[np.diff(keys, prepend=-1) != 0], (k, k, k))

    def _normal_rows(self) -> np.ndarray:
        """Member masks of every normal subgroup, one row each, each made
        once, unsorted.

        A normal subgroup N is a union of classes and the join of the normal
        closures <K> of its classes.  <K_j> is the set of classes reached
        from {1} by multiplying by K_j along the triples (i, j, l) of
        :meth:`_class_products`; it is a subgroup, so every class of it
        leads back to 1, and it is the component of 1 in row j of the graph
        of the edges (j, i) -- (j, l) (:func:`_orbit_roots`).  N<K> is a
        product of normal subgroups, the classes l of the triples with i in
        N and j in <K>, one boolean matrix product.  The class sets come
        from :func:`_canonical_joins`, whose atoms are the classes that are
        the smallest with their closure, each below only itself.
        """
        i, j, l = map(np.concatenate, zip(*self._class_products()))
        k = len(self.conjugacy_classes())
        roots = _orbit_roots(j * k + l, j * k + i).reshape(k, k)
        closures = roots == roots[:, :1]
        # no smaller class has the same closure
        atoms = np.flatnonzero(~np.tril(closures & closures.T, -1).any(axis=1))[1:]
        a, t = np.nonzero(closures[atoms][:, j])
        joins = np.zeros((len(atoms), k, k), dtype=bool)
        joins[a, i[t], l[t]] = True
        below = _words(np.arange(k) == atoms[:, None])
        words, _ = _canonical_joins(k, atoms, below, lambda c, rows, *_: rows @ joins[c])
        return _members(words, k)[:, self._class_ids()]

    def normal_subgroups(self, *, cap: int = SUBGROUP_CAP) -> list[SubgroupSet]:
        """All normal subgroups, sorted by (size, bitset).

        Every subgroup of an abelian group is normal, so there this is the
        cached :func:`subgroups.all_subgroups`, under the same cap.
        Otherwise they are the unions of classes closed under the class
        products (:meth:`_normal_rows`); each is certified a normal subgroup
        from its generators (:meth:`_certify`).

        Cap: a nonabelian group of order above ``cap`` raises
        CapExceededError before any enumeration when it has more than
        NORMAL_CLASS_LIMIT (20) nontrivial conjugacy classes; one with at
        most 20 has at most 2^20 normal subgroups, since each is a union of
        classes, and no order cap.
        """
        from .subgroups import all_subgroups

        if self.is_abelian:
            return all_subgroups(self, cap)
        if self.order > cap and len(self.conjugacy_classes()) - 1 > NORMAL_CLASS_LIMIT:
            raise CapExceededError(
                f"order {self.order} exceeds the subgroup-enumeration cap {cap}"
            )
        rows = self._normal_rows()
        if not all(self._certify(row)[1] for row in rows):
            raise RuntimeError("enumerated normal subgroup failed validation")
        return _subgroup_sets(*_sorted_subgroups(_words(rows), rows.sum(axis=1)))

    def is_simple(self) -> bool:
        """Exactly two normal subgroups (equivalently order > 1 and the normal
        closure of every nontrivial conjugacy class is the whole group).

        A nonabelian group with G' < G is not simple, since G' is then a
        proper nontrivial normal subgroup; :meth:`derived_series` settles
        that in about |G| * |gens| * log2|G| products.  A perfect group is
        simple iff :meth:`_normal_rows`, from the normal closures of its
        classes, finds only the trivial group and G.
        """
        if self.is_abelian:  # the trivial group too: 1 is not prime
            return is_prime(self.order)
        if len(self.derived_series()) > 1:
            return False
        return len(self._normal_rows()) == 2

    # -- derived groups ------------------------------------------------------

    def _member_indices(self, sub: Union[SubgroupSet, np.ndarray], what: str) -> np.ndarray:
        """The distinct indices of a SubgroupSet or an index array, ascending;
        ValueError unless they hold the identity and lie in the group."""
        idx = sub.indices() if isinstance(sub, SubgroupSet) else np.unique(np.asarray(sub, dtype=np.int64))
        if idx.size == 0 or idx[0] != 0:
            raise ValueError(f"{what} must contain the identity (index 0)")
        if idx[-1] >= self.order:
            raise ValueError(f"element index {int(idx[-1])} out of range for order {self.order}")
        return idx

    def subgroup(self, sub: Union[SubgroupSet, np.ndarray]) -> "FiniteGroup":
        """Realize a subgroup as a standalone group by index re-compaction:
        member k is the parent's idx[k], multiplied through the parent's
        backend (:class:`_ImageBackend`), with no table, so at any order up
        to the parent's.  The set is certified a subgroup from its
        generators (:meth:`_certify`)."""
        idx = self._member_indices(sub, "subgroup")
        m = len(idx)
        members = np.zeros(self.order, dtype=bool)
        members[idx] = True
        if not self._certify(members)[0]:
            raise ValueError("index set is not closed under multiplication")
        remap = np.full(self.order, -1, dtype=np.int64)
        remap[idx] = np.arange(m)
        return FiniteGroup(
            _ImageBackend(self.backend, idx, remap),
            labels=_relabel(self._label, idx),
            name=f"{self.name}[sub:{m}]",
        )

    def quotient(self, sub: Union[SubgroupSet, np.ndarray]) -> "FiniteGroup":
        """Quotient by a normal subgroup; identity coset lands at index 0.

        N is certified normal by :meth:`_certify`, whose generators S of N
        give the cosets xN = x<S> as the orbits of the maps x -> x*s
        (:func:`_coset_roots`), |G| x |S| products.  Their smallest members
        number the cosets, and the quotient multiplies those |G/N|
        representatives through the parent's backend, read back as cosets
        (:class:`_ImageBackend`), with no table, so at any order up to the
        parent's."""
        idx = self._member_indices(sub, "normal subgroup")
        n, m = self.order, len(idx)
        qn = n // m
        members = np.zeros(n, dtype=bool)
        members[idx] = True
        closed, normal, gens = self._certify(members)
        if not closed:
            raise ValueError("index set is not a subgroup")
        if not normal:
            raise ValueError("subgroup is not normal")
        maps = self.mul_outer(np.arange(n), gens).T
        # the roots are the smallest members of the cosets xN = Nx
        roots = _coset_roots(maps, np.arange(len(gens))[None])[0]
        reps, coset_of = np.unique(roots, return_inverse=True)
        if len(reps) != qn:
            raise RuntimeError("coset count mismatch")
        # row c: the members of coset c in ascending order, each coset of size |N|
        cosets = np.argsort(coset_of, kind="stable").reshape(qn, m)
        return FiniteGroup(
            _ImageBackend(self.backend, reps, coset_of),
            labels=_coset_labels(self._label, cosets),
            name=f"{self.name}/N{m}",
        )


# -- factory functions ---------------------------------------------------


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of an unsigned array as one fixed-width byte string, its
    entries big-endian, so that the keys sort in the lexicographic order of
    the rows."""
    big = np.ascontiguousarray(rows, dtype=rows.dtype.newbyteorder(">"))
    return big.view(f"V{big.itemsize * rows.shape[1]}").ravel()


# Label functions (see FiniteGroup.__init__): each holds index arrays and
# label functions, never a group, so a lazily labelled group keeps no other
# group's table alive.


def _generic_label(i: int) -> str:
    return f"g{i}" if i else "e"


def _cycle_labels(perms: np.ndarray) -> LabelFn:
    """Element i as the disjoint-cycle string of row i."""
    return lambda i: Permutation(perms[i]).cycle_string()


def _relabel(label: LabelFn, idx: np.ndarray) -> LabelFn:
    """Element k labelled as element idx[k] of a parent."""
    return lambda k: label(int(idx[k]))


def _coset_labels(label: LabelFn, cosets: np.ndarray) -> LabelFn:
    """Coset c as the set of the parent's members in row c of cosets; each
    is rendered once (it costs |N| parent labels), then kept."""
    return functools.cache(lambda c: "{" + ",".join(label(int(i)) for i in cosets[c]) + "}")


def _pair_labels(label_a: LabelFn, label_b: LabelFn, order_b: int) -> LabelFn:
    """Element a*|B| + b of a direct product as the pair (a,b)."""
    return lambda i: f"({label_a(i // order_b)},{label_b(i % order_b)})"


def _associative_at(T: np.ndarray, s: int) -> None:
    """Raise ValueError unless (xs)y = x(sy) for every x and y of the
    Cayley table T: row x of T[T[:, s]] against row x of T[:, T[s]], in
    blocks of :func:`rows_per_block` rows.  np.take gathers the columns
    about five times faster than fancy indexing."""
    n = len(T)
    step = rows_per_block(n)
    for lo in range(0, n, step):
        # [x, y]: (xs)y and x(sy)
        rows = T[lo : lo + step]
        left, right = T[rows[:, s]], np.take(rows, T[s], axis=1)
        if not np.array_equal(left, right):
            x, y = np.argwhere(left != right)[0]
            raise ValueError(f"multiplication is not associative at triple ({lo + x},{s},{y})")


def from_cayley(
    table: Union[np.ndarray, Sequence[Sequence[int]]],
    *,
    labels: Optional[Sequence[str]] = None,
    name: str = "cayley-table",
) -> FiniteGroup:
    """Build a fully validated group from an n x n index matrix.

    A table of more than TABLE_LIMIT rows is refused before any array is
    built.  Nested sequences are converted to int64, an entry beyond it
    reported as out of range; an array is taken as it is, and an int32 one
    is kept without a copy and made read-only.  :class:`TableBackend`
    checks the shape, the range, the identity at index 0 and the two-sided
    inverses, and its :meth:`~TableBackend.validate` decides associativity
    by Light's test at the greedy generators.
    """
    n = len(table)
    if n > TABLE_LIMIT:
        raise CapExceededError(f"order {n} exceeds the Cayley-table cap TABLE_LIMIT={TABLE_LIMIT}")
    if not isinstance(table, np.ndarray):
        try:
            table = np.array(table, dtype=np.int64)
        except OverflowError as exc:
            raise ValueError("table entry out of range") from exc
    return FiniteGroup(TableBackend(table), labels=_generic_label if labels is None else labels, name=name)


def generate_group(
    generators: Sequence[Permutation],
    *,
    cap: int = ELEMENT_CAP,
    name: str = "generated",
) -> FiniteGroup:
    """Breadth-first closure of the given permutations under composition.

    The identity gets index 0; within each BFS level elements are ordered
    lexicographically by image array, so indexing is deterministic.  Each
    level is sorted and filtered against the elements found before it as
    byte keys (:func:`_row_keys`), with no per-row Python work; those keys
    are held in a few sorted runs of falling length, so a closure of many
    small levels, such as one long cycle, does not copy them all at each
    level.  Before each level, the images held and the level's candidates
    are checked against IMAGE_ENTRIES, so the closure is refused before
    the arrays that would exceed it are allocated.
    """
    if not generators:
        raise ValueError("at least one generator is required")
    degree = generators[0].degree
    if any(g.degree != degree for g in generators):
        raise ValueError("generators must share one degree")
    dtype = _perm_dtype(degree)
    gen_arr = np.array([g.images for g in generators], dtype=dtype)
    level = np.arange(degree, dtype=dtype)[None, :]
    levels = [level]
    # the keys of every element found so far, as sorted runs, each more than
    # eight times as long as the next
    runs = [_row_keys(level)]
    count = 1
    while len(level):
        if (count + len(level) * len(gen_arr)) * degree > IMAGE_ENTRIES:
            raise CapExceededError(f"closure needs more than IMAGE_ENTRIES={IMAGE_ENTRIES} permutation images")
        candidates = np.concatenate([g[level] for g in gen_arr], axis=0)
        keys, first = np.unique(_row_keys(candidates), return_index=True)
        fresh = np.ones(len(keys), dtype=bool)
        for run in runs:
            pos = np.searchsorted(run, keys)
            fresh &= run[np.minimum(pos, len(run) - 1)] != keys
        # merging a run only into one at most eight times as long copies each
        # key O(log |G|) times, where one sorted array copies them every
        # level; a smaller factor makes more runs to test each level against
        run, at = keys[fresh], pos[fresh]  # at: its places in the last run
        while runs and len(runs[-1]) <= 8 * len(run):
            if at is None:
                at = np.searchsorted(runs[-1], run)
            run, at = np.insert(runs.pop(), at, run), None
        runs.append(run)
        level = candidates[first[fresh]]
        levels.append(level)
        count += len(level)
        if count > cap:
            raise CapExceededError(f"closure exceeded the element cap {cap}")
    perms = np.concatenate(levels)
    return FiniteGroup(PermBackend(perms), labels=_cycle_labels(perms), name=name)


def from_permutation_set(perms: np.ndarray, *, name: str) -> FiniteGroup:
    """Group from an explicit, already-closed set of permutations.

    Elements are deduplicated, the identity moved to index 0 and the rest
    kept in lexicographic image order.
    """
    perms = np.unique(np.asarray(perms), axis=0)
    degree = perms.shape[1]
    perms = perms.astype(_perm_dtype(degree))
    identity = np.arange(degree, dtype=perms.dtype)
    pos = np.flatnonzero((perms == identity).all(axis=1))
    if len(pos) != 1:
        raise ValueError("element set must contain the identity")
    rest = np.delete(perms, pos[0], axis=0)
    perms = np.concatenate([identity[None, :], rest], axis=0)
    return FiniteGroup(PermBackend(perms), labels=_cycle_labels(perms), name=name)


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product group with index (a, b) -> a*|H| + b, its
    products taken from both factors (:class:`ProductBackend`), and its
    generators from the factors' cached :meth:`FiniteGroup._generators`."""
    check_element_cap(g.order * h.order, "direct product order")
    return FiniteGroup(
        ProductBackend(g.backend, h.backend, g._generators(), h._generators()),
        labels=_pair_labels(g._label, h._label, h.order),
        name=f"product:{g.name},{h.name}",
    )
