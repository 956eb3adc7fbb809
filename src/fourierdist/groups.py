"""Finite groups as dense multiplication tables.

Elements are the indices 0..n-1 and index 0 is always the identity.  Groups
this small (order <= 24) are stored as full Cayley tables; constructors
validate the group axioms exhaustively.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, fields

import numpy as np

from .errors import GroupOrderError, GroupSpecError, SizeLimitError

ISO_ORDER_LIMIT = 24
SYMMETRIC_DEGREE_LIMIT = 5


class _ReadOnlyArrays:
    """Base of the frozen types whose ``__post_init__`` makes their arrays
    read-only.  Unpickling (as in a ``--jobs`` worker) would skip
    ``__post_init__``, so it rebuilds them through ``__init__`` instead."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self))


@dataclass(frozen=True, eq=False)
class FiniteGroup(_ReadOnlyArrays):
    """A finite group given by its Cayley table.

    ``table[i, j]`` is the index of the product of elements i and j and
    ``inverses[i]`` the index of the inverse of i.  Instances are immutable;
    all derived operations are pure functions.
    """

    order: int
    table: np.ndarray
    inverses: np.ndarray
    label: str = "G"

    def __post_init__(self):
        self.table.setflags(write=False)
        self.inverses.setflags(write=False)

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label}, order={self.order})"

    def mult(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverses[i])

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.table, self.table.T))

    def element_orders(self) -> np.ndarray:
        """Order of every element, as an integer array."""
        orders = np.zeros(self.order, dtype=np.int64)
        for g in range(self.order):
            k, x = 1, g
            while x != 0:
                x = int(self.table[x, g])
                k += 1
            orders[g] = k
        return orders

    def conjugacy_classes(self) -> list[list[int]]:
        """Conjugacy classes sorted by (size, smallest member); identity first."""
        seen = np.zeros(self.order, dtype=bool)
        classes = []
        for g in range(self.order):
            if seen[g]:
                continue
            orbit = sorted({int(self.table[self.table[x, g], self.inverses[x]])
                            for x in range(self.order)})
            for y in orbit:
                seen[y] = True
            classes.append(orbit)
        classes.sort(key=lambda c: (len(c), c[0]))
        return classes

    def to_json(self) -> str:
        return json.dumps(
            {"order": self.order, "table": self.table.tolist(), "label": self.label},
            sort_keys=True,
        )


def _check_table(table: np.ndarray) -> np.ndarray:
    """Validate the four group axioms for a candidate table; return inverses.

    Raises GroupSpecError on any violation.  Associativity is checked
    exhaustively (O(n^3), vectorized).
    """
    n = table.shape[0]
    if table.shape != (n, n):
        raise GroupSpecError("multiplication table must be square")
    if table.min() < 0 or table.max() >= n:
        raise GroupSpecError("table entries must be element indices 0..n-1")
    idx = np.arange(n)
    if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
        raise GroupSpecError("index 0 must act as the identity")
    if not (np.array_equal(np.sort(table, axis=0), idx[:, None] * np.ones(n, dtype=int))
            and np.array_equal(np.sort(table, axis=1), np.ones(n, dtype=int)[:, None] * idx)):
        raise GroupSpecError("every row and column must be a permutation")
    left = table[table, :]          # left[i, j, k] = (g_i g_j) g_k
    right = table[:, table]         # right[i, j, k] = g_i (g_j g_k)
    if not np.array_equal(left, right):
        raise GroupSpecError("multiplication table is not associative")
    rows, cols = np.nonzero(table == 0)
    inverses = np.zeros(n, dtype=np.int64)
    inverses[rows] = cols
    if not np.array_equal(table[idx, inverses], np.zeros(n, dtype=int)):
        raise GroupSpecError("inverses are inconsistent")
    return inverses


def group_from_table(table, label: str = "G") -> FiniteGroup:
    """Build a validated FiniteGroup from a raw Cayley table."""
    table = np.asarray(table, dtype=np.int64)
    if table.size == 0:
        raise GroupOrderError("a group must have at least one element")
    inverses = _check_table(table)
    return FiniteGroup(order=table.shape[0], table=table, inverses=inverses, label=label)


def group_from_json(text: str) -> FiniteGroup:
    """Parse the JSON import format {"order": n, "table": [[...]], "label": "..."}."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GroupSpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or "table" not in data:
        raise GroupSpecError('group JSON must be an object with a "table" field')
    table = np.asarray(data["table"], dtype=np.int64)
    if "order" in data and int(data["order"]) != table.shape[0]:
        raise GroupSpecError("declared order does not match the table size")
    return group_from_table(table, label=str(data.get("label", "G")))


def make_cyclic(n: int) -> FiniteGroup:
    """The cyclic group Z_n with table[i, j] = (i + j) mod n."""
    if n < 1:
        raise GroupOrderError(f"cyclic group order must be >= 1, got {n}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return group_from_table(table, label=f"Z{n}")


# Canonical ordering of S3: identity, the transposition s, the 3-cycle r,
# then sr, r^2, sr^2.  Products of permutations compose right-to-left.
_S3_ORDER = [(0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 2, 1), (2, 0, 1), (2, 1, 0)]


def make_symmetric(n: int) -> FiniteGroup:
    """The symmetric group S_n acting on n letters.

    For n = 3 the element order is {id, s, r, sr, r^2, sr^2} with s the
    transposition of the first two letters and r the forward 3-cycle.
    """
    if n < 1:
        raise GroupOrderError(f"symmetric group degree must be >= 1, got {n}")
    if n > SYMMETRIC_DEGREE_LIMIT:
        raise SizeLimitError(f"symmetric group degree capped at {SYMMETRIC_DEGREE_LIMIT}")
    if n == 3:
        perms = list(_S3_ORDER)
    else:
        perms = sorted(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    m = len(perms)
    table = np.zeros((m, m), dtype=np.int64)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[x]] for x in range(n))]
    return group_from_table(table, label=f"S{n}")


def make_direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with lexicographic indexing: (i, j) -> i*|b| + j."""
    nb = b.order
    combined = a.table[:, None, :, None] * nb + b.table[None, :, None, :]
    n = a.order * nb
    return group_from_table(combined.reshape(n, n), label=f"{a.label}x{b.label}")


def make_dihedral(n: int) -> FiniteGroup:
    """The dihedral group D_n of order 2n.

    Indices 0..n-1 are the rotations r^k, indices n..2n-1 the reflections
    s r^k, with the relation r s = s r^{-1}.
    """
    if n < 2:
        raise GroupOrderError(f"dihedral parameter must be >= 2, got {n}")
    m = 2 * n
    table = np.zeros((m, m), dtype=np.int64)
    for a in range(n):
        for b in range(n):
            table[a, b] = (a + b) % n                  # r^a r^b
            table[a, n + b] = n + (b - a) % n          # r^a (s r^b) = s r^{b-a}
            table[n + a, b] = n + (a + b) % n          # (s r^a) r^b
            table[n + a, n + b] = (b - a) % n          # (s r^a)(s r^b) = r^{b-a}
    return group_from_table(table, label=f"D{n}")


def make_quaternion() -> FiniteGroup:
    """The quaternion group Q8 as {1, -1, i, -i, j, -j, k, -k}."""
    e = np.eye(2, dtype=complex)
    qi = np.array([[1j, 0], [0, -1j]])
    qj = np.array([[0, 1], [-1, 0]], dtype=complex)
    qk = qi @ qj
    mats = [e, -e, qi, -qi, qj, -qj, qk, -qk]
    table = np.zeros((8, 8), dtype=np.int64)
    for a in range(8):
        for b in range(8):
            prod = mats[a] @ mats[b]
            matches = [c for c, m in enumerate(mats) if np.allclose(prod, m)]
            table[a, b] = matches[0]
    return group_from_table(table, label="Q8")


@dataclass(frozen=True, eq=False)
class GroupBijection(_ReadOnlyArrays):
    """A bijection t from a group H onto a group G of the same order.

    ``map[h]`` is the index t(h) in G.  The bijection need not respect the
    group operations; the induced map on Fourier algebras sends f on G to
    f(t(.)) on H.
    """

    source: FiniteGroup   # H, the domain of t
    target: FiniteGroup   # G, the codomain
    map: np.ndarray

    def __post_init__(self):
        mp = np.asarray(self.map, dtype=np.int64)
        object.__setattr__(self, "map", mp)
        mp.setflags(write=False)
        if self.source.order != self.target.order:
            raise GroupSpecError("a bijection needs groups of equal order")
        if not np.array_equal(np.sort(mp), np.arange(self.source.order)):
            raise GroupSpecError("bijection map must be a permutation of 0..n-1")

    def inverse(self) -> GroupBijection:
        inv = np.zeros(self.source.order, dtype=np.int64)
        inv[self.map] = np.arange(self.source.order)
        return GroupBijection(source=self.target, target=self.source, map=inv)

    def is_homomorphism(self) -> bool:
        """True iff t(h1 h2) = t(h1) t(h2) for all pairs."""
        lhs = self.map[self.source.table]
        rhs = self.target.table[self.map[:, None], self.map[None, :]]
        return bool(np.array_equal(lhs, rhs))

    def is_anti_homomorphism(self) -> bool:
        """True iff t(h1 h2) = t(h2) t(h1) for all pairs."""
        lhs = self.map[self.source.table]
        rhs = self.target.table[self.map[:, None], self.map[None, :]].T
        return bool(np.array_equal(lhs, rhs))

    def translate_source(self, h0: int) -> GroupBijection:
        """The bijection h -> t(h0 h)."""
        return GroupBijection(self.source, self.target,
                              self.map[self.source.table[h0]])

    def translate_target(self, g0: int) -> GroupBijection:
        """The bijection h -> g0 t(h)."""
        return GroupBijection(self.source, self.target,
                              self.target.table[g0, self.map])


def _generating_sequence(g: FiniteGroup):
    """Greedy generating set plus a derivation of every element.

    Returns (generators, derivation) where derivation is a list of
    (element, how) in construction order and how is either ("gen", i) or
    ("mul", x, y) with x, y previously constructed elements.
    """
    orders = g.element_orders()
    generators: list[int] = []
    derivation: list[tuple[int, tuple]] = []
    known = {0}
    while len(known) < g.order:
        candidates = [x for x in range(g.order) if x not in known]
        nxt = max(candidates, key=lambda x: (orders[x], -x))
        generators.append(nxt)
        derivation.append((nxt, ("gen", len(generators) - 1)))
        known.add(nxt)
        # close under multiplication, recording one derivation per new element
        frontier = True
        while frontier:
            frontier = False
            for x in list(known):
                for y in list(known):
                    z = int(g.table[x, y])
                    if z not in known:
                        known.add(z)
                        derivation.append((z, ("mul", x, y)))
                        frontier = True
    return generators, derivation


def all_isomorphisms(a: FiniteGroup, b: FiniteGroup):
    """Yield every isomorphism a -> b as an index map array.

    Backtracks over images of a greedy generating set of ``a``, pruning by
    element order, then verifies the full homomorphism property.
    """
    if a.order != b.order:
        return
    if a.order > ISO_ORDER_LIMIT or b.order > ISO_ORDER_LIMIT:
        raise SizeLimitError(f"isomorphism search capped at order {ISO_ORDER_LIMIT}")
    orders_a = a.element_orders()
    orders_b = b.element_orders()
    if sorted(orders_a) != sorted(orders_b):
        return
    generators, derivation = _generating_sequence(a)
    candidates = [np.nonzero(orders_b == orders_a[gen])[0] for gen in generators]

    def build_map(images):
        mapping = np.full(a.order, -1, dtype=np.int64)
        mapping[0] = 0
        for elem, how in derivation:
            if how[0] == "gen":
                img = images[how[1]]
            else:
                img = int(b.table[mapping[how[1]], mapping[how[2]]])
            if mapping[elem] != -1 and mapping[elem] != img:
                return None
            mapping[elem] = img
        if sorted(mapping.tolist()) != list(range(a.order)):
            return None
        if not np.array_equal(mapping[a.table],
                              b.table[mapping[:, None], mapping[None, :]]):
            return None
        return mapping

    for images in itertools.product(*[c.tolist() for c in candidates]):
        if len(set(images)) != len(images):
            continue
        mapping = build_map(images)
        if mapping is not None:
            yield mapping


def are_isomorphic(a: FiniteGroup, b: FiniteGroup):
    """Decide isomorphism; returns (flag, witness_map or None).

    The witness w satisfies w[a.table[i, j]] = b.table[w[i], w[j]].
    """
    for mapping in all_isomorphisms(a, b):
        return True, mapping
    return False, None


def automorphisms(g: FiniteGroup) -> list[np.ndarray]:
    """All automorphisms of g as index maps."""
    return list(all_isomorphisms(g, g))


_TOKEN_RE = re.compile(r"^(Z|S|D)(\d+)$|^(Q8)$", re.IGNORECASE)


def parse_group_spec(spec: str) -> FiniteGroup:
    """Parse group literals like "Z6", "S3", "D4", "Q8" and products "Z2xZ2xZ2"."""
    text = spec.strip()
    if not text:
        raise GroupSpecError("empty group literal")
    parts = text.split("x")
    groups = []
    for part in parts:
        m = _TOKEN_RE.match(part.strip())
        if m is None:
            raise GroupSpecError(f"unrecognized group literal {part!r}")
        if m.group(3) is not None:
            groups.append(make_quaternion())
            continue
        kind, num = m.group(1).upper(), int(m.group(2))
        if kind == "Z":
            groups.append(make_cyclic(num))
        elif kind == "S":
            groups.append(make_symmetric(num))
        else:
            groups.append(make_dihedral(num))
    result = groups[0]
    for extra in groups[1:]:
        result = make_direct_product(result, extra)
    return result


def standard_corpus() -> list[FiniteGroup]:
    """The test corpus: Z1..Z8, Z2xZ2, Z2xZ4, Z2xZ2xZ2, S3, D4, Q8."""
    z2 = make_cyclic(2)
    return [
        *(make_cyclic(n) for n in range(1, 9)),
        make_direct_product(z2, z2),
        make_direct_product(z2, make_cyclic(4)),
        make_direct_product(make_direct_product(z2, z2), z2),
        make_symmetric(3),
        make_dihedral(4),
        make_quaternion(),
    ]
