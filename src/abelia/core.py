"""Finite pointed algebras: carriers, operation tables, homomorphisms,
products, quotients, subpowers and free algebras, and split-epi factorization.

Elements of an algebra of size n are the integers 0..n-1, and 0 is always
the distinguished point (the value of the nullary operation ``zero``).
Operation tables are flat tuples in row-major order over argument tuples
(last argument varies fastest), so a k-ary operation on n elements has a
table of n**k entries.  A product's tables are built per operation on
first read and then kept, so code that reads a product through its factors
(equality, the canonical maps, congruence generation) never builds them.
All table arithmetic goes through ``coordinates``, the digit columns of a
row-major order, and ``pointwise``, which applies an op to whole columns
kept as ``vector_type(n)``.  The laws s(x, x) = 0, s(x, 0) = x of a
subtraction and p(x, 0) = x = p(0, x) of a unit term are written here
once, as table cells (``subtraction_cells``, ``unit_cells``).
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from .caps import Caps, DEFAULT_CAPS

if TYPE_CHECKING:
    from .congruences import Congruence


class AbeliaError(Exception):
    """Base class for errors raised by this package."""


class ParseError(AbeliaError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class SignatureMismatch(AbeliaError):
    """Two algebras were combined but do not share a signature."""


class InvalidAlgebra(AbeliaError):
    """An algebra violates a structural invariant (table sizes, ranges, zero)."""


class InvalidHomomorphism(AbeliaError):
    """A map table does not commute with the operations."""


class IncompatiblePartition(AbeliaError):
    """A partition handed to quotient() is not a congruence of the algebra."""


class CapExceeded(AbeliaError):
    """A size cap was hit; the outcome is unknown rather than decided."""

    def __init__(self, what: str, needed: int, limit: int):
        self.what = what
        self.needed = needed
        self.limit = limit
        super().__init__(f"{what}: needs {needed}, cap is {limit}")


ZERO_OP = "zero"


def term_variable(name: str) -> int | None:
    """The index i of a term variable ``x<i>`` (decimal digits after the
    x), or None for any other name."""
    return int(name[1:]) if name[:1] == "x" and name[1:].isdecimal() else None


@dataclass(frozen=True)
class Signature:
    """Operation names with arities.  Always contains the nullary ``zero``.
    Names of the form ``x<digits>`` are the variables of terms, not ops."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        names = [name for name, _ in self.ops]
        if len(set(names)) != len(names):
            raise InvalidAlgebra(f"duplicate operation names in {names}")
        for name, arity in self.ops:
            if not name or "#" in name or any(c.isspace() for c in name):
                raise InvalidAlgebra(f"bad operation name {name!r}")
            if term_variable(name) is not None:
                raise InvalidAlgebra(f"operation name {name!r} is a term variable")
            if arity < 0:
                raise InvalidAlgebra(f"negative arity for {name!r}")
        if (ZERO_OP, 0) not in self.ops:
            raise InvalidAlgebra("signature must contain the nullary operation zero")

    @staticmethod
    def make(ops: Iterable[tuple[str, int]] = ()) -> "Signature":
        """Build a signature, supplying the implicit ``zero`` if absent."""
        listed = tuple(ops)
        if any(name == ZERO_OP for name, _ in listed):
            return Signature(listed)
        return Signature(((ZERO_OP, 0),) + listed)

    def arity(self, name: str) -> int:
        for opname, k in self.ops:
            if opname == name:
                return k
        raise KeyError(name)


POINTED = Signature.make()


def op_table(size: int, arity: int, fn) -> tuple[int, ...]:
    """Row-major operation table computed from a python function."""
    if arity == 0:
        return (fn(),)
    return tuple(fn(*args) for args in itertools.product(range(size), repeat=arity))


def vector_type(n: int) -> type:
    """The type of column vectors over an n-element carrier: ``bytes`` when
    every element fits in a byte, else ``tuple``.  Vectors that are compared
    or used as dict keys together must all have this one type."""
    return bytes if n <= 256 else tuple


def concat(vectors, n: int):
    """The given vectors of ``vector_type(n)`` joined end to end."""
    if n <= 256:
        return b"".join(vectors)
    return tuple(itertools.chain.from_iterable(vectors))


def split(vec, width: int, n: int):
    """``vec`` of ``vector_type(n)`` cut into vectors of the given width,
    the inverse of ``concat``.  Bytes are cut by one ``struct`` format of
    ``len(vec) // width`` fields, several times faster than slicing."""
    if n <= 256:
        return struct.unpack(f"{width}s" * (len(vec) // width), vec)
    return [vec[r:r + width] for r in range(0, len(vec), width)]


def coordinates(radices: tuple[int, ...]) -> tuple:
    """The digit columns of the row-major order on range(r0) x range(r1) x
    ..., last digit fastest: entry t of column j is digit j of t, and
    column j has type ``vector_type(radices[j])``.  Handed to ``pointwise``,
    the columns of ``(n,) * k`` give an op's whole table in its own layout."""
    cols = []
    for j, r in enumerate(radices):
        stride = math.prod(radices[j + 1:])
        digits = itertools.chain.from_iterable(itertools.repeat(d, stride) for d in range(r))
        cols.append(vector_type(r)(digits) * math.prod(radices[:j]))
    return tuple(cols)


def pointwise(table: tuple[int, ...], n: int, arity: int):
    """The applier of an ``arity``-ary op (arity >= 1) on n elements to
    column vectors of ``vector_type(n)``, one column per argument: entry r
    of ``apply(cols)`` is the op's value at ``(cols[0][r], cols[1][r], ...)``.

    When ``n ** arity <= 256`` the columns are folded into one integer,
    ``acc = acc * n + int(col)`` with each column read as a little-endian
    base-256 number.  Byte r of ``acc`` is then the row-major index of row
    r, at most ``n ** arity - 1 <= 255``, so no digit carries into the next,
    and one ``bytes.translate`` maps every index to its value.  Larger
    tables go through nested tuples and a chain of ``map`` calls.

    Entry r depends on row r alone, so on every path columns that are each
    c blocks joined end to end (``concat``), block i of every column of one
    length, give the c blocks' outputs joined end to end.  The subpower and
    clone closures rely on this to evaluate a whole run of last arguments
    in one call.
    """
    if n ** arity <= 256:
        lookup = bytes(table) + bytes(256 - len(table))
        from_bytes = int.from_bytes

        def apply(cols):
            acc = 0
            for col in cols:
                acc = acc * n + from_bytes(col, "little")
            return acc.to_bytes(len(cols[0]), "little").translate(lookup)
        return apply

    # The table as nested tuples: nested[a][b][c] is the value at (a, b, c).
    nested = table
    for _ in range(arity - 1):
        nested = tuple(nested[i:i + n] for i in range(0, len(nested), n))
    vector = vector_type(n)

    def apply(cols):
        it = map(nested.__getitem__, cols[0])
        for col in cols[1:]:
            it = map(operator.getitem, it, col)
        return vector(it)
    return apply


def _check_table(opname: str, arity: int, size: int, table: tuple[int, ...]) -> None:
    expect = size ** arity
    if len(table) != expect:
        raise InvalidAlgebra(
            f"operation {opname}: table has {len(table)} entries, expected {expect}")
    if any(not (0 <= v < size) for v in table):
        raise InvalidAlgebra(f"operation {opname}: table entry out of range")


@dataclass(frozen=True, repr=False)
class FiniteAlgebra:
    name: str
    size: int
    signature: Signature
    tables: Mapping[str, tuple[int, ...]]

    def __post_init__(self):
        if self.size < 1:
            raise InvalidAlgebra("carrier must be non-empty")
        want = {name for name, _ in self.signature.ops}
        if set(self.tables) != want:
            raise InvalidAlgebra(
                f"tables {sorted(self.tables)} do not match signature {sorted(want)}")
        self._check_tables()
        if self.tables[ZERO_OP] != (0,):
            raise InvalidAlgebra("zero must name element 0")

    def _check_tables(self) -> None:
        for opname, arity in self.signature.ops:
            _check_table(opname, arity, self.size, self.tables[opname])

    def elements(self) -> range:
        return range(self.size)

    def apply(self, opname: str, *args: int) -> int:
        idx = 0
        for a in args:
            idx = idx * self.size + a
        return self.tables[opname][idx]

    def __repr__(self):
        return f"<algebra {self.name}: size {self.size}>"


def hom_violation(source: FiniteAlgebra, target: FiniteAlgebra,
                  mapping: tuple[int, ...]) -> tuple[str, tuple[int, ...]] | None:
    """First (operation, argument tuple) where mapping fails to commute, else
    None.  Each op is checked by ``op_violation``."""
    for opname, arity in source.signature.ops:
        args = op_violation(source.tables[opname], target.tables[opname],
                            source.size, target.size, arity, mapping)
        if args is not None:
            return (opname, args)
    return None


def op_violation(st: tuple[int, ...], tt: tuple[int, ...], n: int, m: int, arity: int,
                 mapping: tuple[int, ...]) -> tuple[int, ...] | None:
    """The first argument tuple, in row-major order, where mapping from n to
    m elements fails to commute with one op, given by its table st on the
    source and tt on the target; None if it commutes.  Whole columns are
    compared; a row is located only on a mismatch."""
    if arity == 0:
        return () if mapping[st[0]] != tt[0] else None
    vector = vector_type(m)
    image = mapping.__getitem__
    cols = coordinates((n,) * arity)
    lhs = vector(map(image, st))
    rhs = pointwise(tt, m, arity)([vector(map(image, col)) for col in cols])
    return first_mismatch(lhs, rhs, cols)


def first_mismatch(lhs, rhs, cols) -> tuple[int, ...] | None:
    """The entries of ``cols`` at the first row where same-typed lhs and rhs differ, else None."""
    if lhs == rhs:
        return None
    i = next(i for i, (u, v) in enumerate(zip(lhs, rhs)) if u != v)
    return tuple(col[i] for col in cols)


def subtraction_cells(n: int) -> tuple[tuple[int, int], ...]:
    """s(x, x) = 0 and s(x, 0) = x as (index, value) cells of a binary
    table on n elements, x ascending."""
    return tuple(cell for x in range(n) for cell in ((x * n + x, 0), (x * n, x)))


def unit_cells(n: int) -> tuple[tuple[int, int], ...]:
    """p(x, 0) = x = p(0, x) as cells, laid out as ``subtraction_cells``;
    each cell's value is its x."""
    return tuple(cell for x in range(n) for cell in ((x * n, x), (x, x)))


def broken_cell(table, cells) -> tuple[int, int] | None:
    """The first (index, value) of ``cells`` that ``table`` breaks, else None."""
    return next(((i, v) for i, v in cells if table[i] != v), None)


def is_homomorphism(source: FiniteAlgebra, target: FiniteAlgebra,
                    mapping: tuple[int, ...]) -> bool:
    return (source.signature == target.signature
            and len(mapping) == source.size
            and all(0 <= v < target.size for v in mapping)
            and hom_violation(source, target, mapping) is None)


@dataclass(frozen=True, repr=False, slots=True)
class Homomorphism:
    """A structure-preserving map.  The public constructor validates it
    exhaustively; maps already proved by construction or by the search in
    ``enumerate_homomorphisms`` are built with ``_proved``, without
    re-checking."""

    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]

    def __post_init__(self):
        if self.source.signature != self.target.signature:
            raise SignatureMismatch(
                f"{self.source.name} and {self.target.name} have different signatures")
        if len(self.mapping) != self.source.size:
            raise InvalidHomomorphism(
                f"map table has {len(self.mapping)} entries for a carrier of {self.source.size}")
        if min(self.mapping) < 0 or max(self.mapping) >= self.target.size:
            raise InvalidHomomorphism("map table entry out of range")
        viol = hom_violation(self.source, self.target, self.mapping)
        if viol is not None:
            raise InvalidHomomorphism(f"does not commute with {viol[0]} at {viol[1]}")

    @classmethod
    def _proved(cls, source: FiniteAlgebra, target: FiniteAlgebra,
                mapping: tuple[int, ...]) -> "Homomorphism":
        """A map the caller has proved to be a homomorphism, built without
        the checks of ``__post_init__``."""
        h = object.__new__(cls)
        object.__setattr__(h, "source", source)
        object.__setattr__(h, "target", target)
        object.__setattr__(h, "mapping", mapping)
        return h

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def __repr__(self):
        return f"<hom {self.source.name}->{self.target.name} {list(self.mapping)}>"


def identity_hom(A: FiniteAlgebra) -> Homomorphism:
    return Homomorphism._proved(A, A, tuple(range(A.size)))


def zero_hom(X: FiniteAlgebra, Y: FiniteAlgebra) -> Homomorphism:
    """The constant-zero map X -> Y.  It is a homomorphism exactly when every
    op of Y maps (0, ..., 0) to 0; otherwise this raises
    ``InvalidHomomorphism``."""
    if X.signature != Y.signature:
        raise SignatureMismatch(f"{X.name} and {Y.name} have different signatures")
    return _zero_padded(X, Y, (0,) * X.size, Y)


def _zero_padded(source: FiniteAlgebra, target: FiniteAlgebra, mapping: tuple[int, ...],
                 padded: FiniteAlgebra) -> Homomorphism:
    make = Homomorphism._proved if _fixes_zero(padded) else Homomorphism
    return make(source, target, mapping)


def compose(g: Homomorphism, f: Homomorphism) -> Homomorphism:
    """The composite g after f, a homomorphism since both are."""
    if f.target != g.source:
        raise ValueError("compose: inner target does not match outer source")
    return Homomorphism._proved(f.source, g.target, tuple(g.mapping[v] for v in f.mapping))


@dataclass(frozen=True, repr=False)
class ProductAlgebra(FiniteAlgebra):
    """Componentwise product on pairs (a, b) encoded as a*|B|+b.

    Its tables are the ``ProductTables`` of its own factors, checked once at
    construction, so readers go through the factors and build no product
    table: products with equal names and factors are equal, the projections
    p1, p2 commute with every op, and the zero-padded inclusions
    i1: a -> (a, 0) and i2: b -> (0, b) do exactly when every op of the
    padding factor maps (0, ..., 0) to 0 (else reading one raises).
    """

    left: FiniteAlgebra
    right: FiniteAlgebra

    def _check_tables(self) -> None:
        # The factors' tables were checked when the factors were built.
        T = self.tables
        if not (isinstance(T, ProductTables) and T.left is self.left and T.right is self.right
                and self.size == self.left.size * self.right.size
                and self.signature == self.left.signature == self.right.signature):
            raise InvalidAlgebra("a product's tables must be the product of its own factors")

    def __eq__(self, other):
        if not isinstance(other, ProductAlgebra):
            return NotImplemented
        return (self.name, self.left, self.right) == (other.name, other.left, other.right)

    def pair(self, a: int, b: int) -> int:
        return a * self.right.size + b

    def split(self, e: int) -> tuple[int, int]:
        return divmod(e, self.right.size)

    @cached_property
    def p1(self) -> Homomorphism:
        nb = self.right.size
        return Homomorphism._proved(self, self.left, tuple(e // nb for e in range(self.size)))

    @cached_property
    def p2(self) -> Homomorphism:
        nb = self.right.size
        return Homomorphism._proved(self, self.right, tuple(e % nb for e in range(self.size)))

    @cached_property
    def i1(self) -> Homomorphism:
        nb = self.right.size
        return _zero_padded(self.left, self, tuple(a * nb for a in range(self.left.size)),
                            self.right)

    @cached_property
    def i2(self) -> Homomorphism:
        return _zero_padded(self.right, self, tuple(range(self.right.size)), self.left)


def _fixes_zero(A: FiniteAlgebra) -> bool:
    """Whether every op of A maps (0, ..., 0), index 0 of its table, to 0:
    then ``_zero_padded`` builds a map that commutes but for a part sent to
    A's 0 unchecked.  A product is asked through its factors, so no product
    table is built."""
    if isinstance(A, ProductAlgebra):
        return _fixes_zero(A.left) and _fixes_zero(A.right)
    return all(A.tables[name][0] == 0 for name, _ in A.signature.ops)


class ProductTables(Mapping):
    """The operation tables of left x right, in the row-major layout of any
    other table, each built on first read and then kept.  Every entry pairs
    two entries of the factors' checked tables, so none is checked again."""

    def __init__(self, left: FiniteAlgebra, right: FiniteAlgebra):
        self.left = left
        self.right = right
        self._built: dict[str, tuple[int, ...]] = {}

    def __getitem__(self, opname: str) -> tuple[int, ...]:
        table = self._built.get(opname)
        if table is None:
            arity = self.left.signature.arity(opname)
            table = self._built[opname] = _product_table(self.left, self.right, opname, arity)
        return table

    def __contains__(self, opname) -> bool:
        return any(name == opname for name, _ in self.left.signature.ops)

    def __iter__(self) -> Iterator[str]:
        return (name for name, _ in self.left.signature.ops)

    def __len__(self) -> int:
        return len(self.left.signature.ops)


def _product_table(A: FiniteAlgebra, B: FiniteAlgebra, opname: str,
                   arity: int) -> tuple[int, ...]:
    # A x B's argument tuples run in the row-major order on (a1, b1, a2, b2,
    # ...): the even columns are A's arguments, the odd ones B's.
    ta = A.tables[opname]
    tb = B.tables[opname]
    nb = B.size
    if arity == 0:
        return (ta[0] * nb + tb[0],)
    cols = coordinates((A.size, nb) * arity)
    left = pointwise(ta, A.size, arity)(cols[0::2])
    right = pointwise(tb, nb, arity)(cols[1::2])
    return tuple(a * nb + b for a, b in zip(left, right))


def product(A: FiniteAlgebra, B: FiniteAlgebra) -> ProductAlgebra:
    if A.signature != B.signature:
        raise SignatureMismatch(f"product: {A.name} and {B.name} have different signatures")
    return ProductAlgebra(f"{A.name}x{B.name}", A.size * B.size, A.signature,
                          ProductTables(A, B), A, B)


def pairing_hom(prod: ProductAlgebra, a: Homomorphism, b: Homomorphism) -> Homomorphism:
    """The tupling <a, b>: X -> A x B of two maps with a common source, a
    homomorphism by the product's universal property, so built unchecked."""
    if a.source != b.source:
        raise ValueError("pairing_hom: the two maps must share a source")
    if a.target != prod.left or b.target != prod.right:
        raise ValueError("pairing_hom: targets must be the product factors")
    return Homomorphism._proved(a.source, prod,
                                tuple(prod.pair(a.mapping[x], b.mapping[x])
                                      for x in range(a.source.size)))


def enumerate_homomorphisms(X: FiniteAlgebra, Y: FiniteAlgebra,
                            pinned: dict[int, int] | None = None) -> Iterator[Homomorphism]:
    """Yield every homomorphism X -> Y extending ``pinned``, each exactly once.

    The stream is sorted lexicographically by the full map table, and a
    pinned entry that contradicts a forced equation yields an empty stream,
    not an error.  Each map is a ``Homomorphism`` built from a table of
    ``_hom_tables`` without re-checking.  The condition checks in
    ``normalproj``, ``find_internal_subtractions`` and the map loop of
    ``crystallographic_report`` take these objects;
    ``structures.internal_subtraction_tables`` reads ``_hom_tables`` and
    builds none.
    """
    proved = Homomorphism._proved
    for table in _hom_tables(X, Y, pinned):
        yield proved(X, Y, table)


def _hom_tables(X: FiniteAlgebra, Y: FiniteAlgebra,
                pinned: dict[int, int] | None = None) -> Iterator[tuple[int, ...]]:
    """The map tables of ``enumerate_homomorphisms``, in the same order.

    Backtracks over carrier elements in increasing order with image
    candidates in increasing order.  Every argument tuple of a non-constant
    op is one constraint, h(op(args)) = op(h(args)), listed in the watch
    list of each distinct cell of ``args``.  After every choice the search
    walks the cells assigned since it, and a constraint whose arguments are
    all assigned fires: it assigns its output cell, or reports a conflict,
    and a newly assigned cell is walked in turn.  Constants are checked
    once, at the root.  At a leaf every cell is assigned and every
    constraint has fired, so the table commutes with every op.
    """
    if X.signature != Y.signature:
        raise SignatureMismatch(f"{X.name} and {Y.name} have different signatures")
    pins = dict(pinned or {})
    for e, v in pins.items():
        if not (0 <= e < X.size and 0 <= v < Y.size):
            raise ValueError(f"pinned entry {e}->{v} out of range")
    n, m = X.size, Y.size
    watch: list[list] = [[] for _ in range(n)]
    forced = [(0, 0)] + sorted(pins.items())
    for opname, arity in X.signature.ops:
        st, tt = X.tables[opname], Y.tables[opname]
        if arity == 0:
            forced.append((st[0], tt[0]))
            continue
        for out, args in zip(st, itertools.product(range(n), repeat=arity)):
            constraint = (out, tt, args)
            for e in set(args):
                watch[e].append(constraint)
    partial = [-1] * n
    trail: list[int] = []

    def settle(start: int) -> bool:
        # Walk trail[start:], firing the constraints watching each cell;
        # cells that firing assigns join the end of the walk.
        i = start
        while i < len(trail):
            for out, tt, args in watch[trail[i]]:
                ti = 0
                for a in args:
                    v = partial[a]
                    if v < 0:
                        break
                    ti = ti * m + v
                else:
                    cur = partial[out]
                    if cur < 0:
                        partial[out] = tt[ti]
                        trail.append(out)
                    elif cur != tt[ti]:
                        return False
            i += 1
        return True

    for e, v in forced:
        if partial[e] < 0:
            partial[e] = v
            trail.append(e)
        elif partial[e] != v:
            return
    if not settle(0):
        return
    # Depth-first over frames [cell, next candidate, trail mark], one per
    # branching cell; every candidate is tried from the state at the mark.
    # The trail holds exactly the assigned cells.
    stack: list[list[int]] = []
    while True:
        if len(trail) == n:
            yield tuple(partial)
        else:
            stack.append([partial.index(-1), 0, len(trail)])
        while stack:
            frame = stack[-1]
            cell, v, mark = frame
            while len(trail) > mark:
                partial[trail.pop()] = -1
            if v == m:
                stack.pop()
                continue
            frame[1] = v + 1
            partial[cell] = v
            trail.append(cell)
            if not watch[cell] or settle(mark):
                break
        else:
            return


def quotient(A: FiniteAlgebra, theta: "Congruence") -> tuple[FiniteAlgebra, Homomorphism]:
    """The quotient A/theta together with its canonical surjection.

    Blocks are renumbered with the block of 0 first, the rest by least
    member in increasing order.  Each op of A/theta is A's op at the
    blocks' least members.  The partition is a congruence exactly when the
    block map commutes with these ops, since any argument tuple and its
    tuple of least members are blockwise equal; otherwise
    ``IncompatiblePartition`` names an (op, args) where it does not.
    """
    if theta.size != A.size:
        raise ValueError(f"congruence is over {theta.size} elements, algebra has {A.size}")
    reps = sorted(set(theta.rep))
    index = {r: i for i, r in enumerate(reps)}
    block = tuple(index[r] for r in theta.rep)
    size = len(reps)
    vector = vector_type(A.size)
    tables: dict[str, tuple[int, ...]] = {}
    for opname, arity in A.signature.ops:
        table = A.tables[opname]
        if arity == 0:
            tables[opname] = (block[table[0]],)
            continue
        cols = [vector(map(reps.__getitem__, col)) for col in coordinates((size,) * arity)]
        tables[opname] = tuple(map(block.__getitem__, pointwise(table, A.size, arity)(cols)))
    Q = FiniteAlgebra(f"{A.name}/~", size, A.signature, tables)
    viol = hom_violation(A, Q, block)
    if viol is not None:
        raise IncompatiblePartition(
            f"partition is not compatible with {viol[0]} at {viol[1]}")
    return Q, Homomorphism._proved(A, Q, block)


def free_algebra(A: FiniteAlgebra, k: int,
                 caps: Caps = DEFAULT_CAPS) -> tuple[FiniteAlgebra, list[int]]:
    """The k-generated free algebra in the variety generated by A.

    Realized as the subalgebra of A**(A**k) generated by the k coordinate
    projections; returns the algebra (element 0 is the constant-zero vector)
    and the indices of the generators.
    """
    if k < 0:
        raise ValueError("need a non-negative number of generators")
    if k > caps.free_positions:
        raise CapExceeded("free algebra generators", k, caps.free_positions)
    n, positions = A.size, 1
    for _ in range(k):
        positions *= n
        if positions > caps.free_positions:
            raise CapExceeded("free algebra exponent positions", positions, caps.free_positions)
    F, gen_ids, _ = subpower(A, coordinates((n,) * k), caps, name=f"Free({A.name},{k})")
    return F, gen_ids


def subpower(A: FiniteAlgebra, generators: Iterable[Iterable[int]],
             caps: Caps = DEFAULT_CAPS, *,
             name: str | None = None) -> tuple[FiniteAlgebra, list[int], list]:
    """The subalgebra of A**m generated by the given vectors of length m
    (m = 1 when there are none: then it is generated by A's constants).

    Returns the algebra, the indices of the generators and the elements as
    vectors of ``vector_type(A.size)``.  Element 0 is the constant-zero
    vector; then come the generators, the non-zero constants and the new
    elements of each closure round in the order they are met.
    ``caps.free_carrier`` bounds the carrier.
    """
    n = A.size
    # Carrier vectors are interned as ``vector_type(n)``: every key of
    # ``index`` has that one type, so equal vectors meet as equal keys.
    vector = vector_type(n)
    gens = [vector(g) for g in generators]
    m = len(gens[0]) if gens else 1
    if m < 1 or any(len(g) != m or not all(0 <= x < n for x in g) for g in gens):
        raise ValueError(f"generators must be non-empty vectors of one length over range({n})")
    elems: list = [vector((0,) * m)]
    index: dict = {elems[0]: 0}

    def intern(vec) -> int:
        got = index.get(vec)
        if got is not None:
            return got
        if len(elems) >= caps.free_carrier:
            raise CapExceeded("free algebra carrier", len(elems) + 1, caps.free_carrier)
        index[vec] = len(elems)
        elems.append(vec)
        return index[vec]

    gen_ids = [intern(g) for g in gens]
    for opname, arity in A.signature.ops:
        if arity == 0 and opname != ZERO_OP:
            intern(vector(A.tables[opname] * m))

    # Round r applies every op to the argument tuples over the first
    # ``known`` elements that it has not met before, so each tuple of the
    # final carrier is evaluated exactly once.  The last argument goes in
    # runs: one ``pointwise`` call takes the other arguments, each repeated
    # once per element of the run ``elems[lo:known]``, and that run joined
    # end to end, and its output is cut into the run's images.  The run
    # starts at ``prev`` unless some other argument is new; both runs are
    # joined at the start of the round, before any op grows ``elems``.  The
    # ids found for ``prefix + (j,)``, j = 0, 1, ..., extend
    # ``images[op][prefix]``, so an op's table is the chain of its prefixes'
    # lists.
    images: dict[str, dict[tuple[int, ...], list[int]]] = {
        opname: {} for opname, arity in A.signature.ops if arity >= 1}
    ops = [(arity, pointwise(A.tables[opname], n, arity), images[opname])
           for opname, arity in A.signature.ops if arity >= 1]
    prev = 0
    while True:
        known = len(elems)
        runs = {lo: concat(elems[lo:known], n) for lo in {0, prev}}
        for arity, apply, lists in ops:
            for prefix in itertools.product(range(known), repeat=arity - 1):
                lo = prev if max(prefix, default=-1) < prev else 0
                count = known - lo
                out = apply([elems[i] * count for i in prefix] + [runs[lo]])
                batch = split(out, m, n)
                ids = list(map(index.get, batch))
                if None in ids:
                    ids = [intern(vec) for vec in batch]
                lists.setdefault(prefix, []).extend(ids)
        if len(elems) == known:
            break
        prev = known

    size = len(elems)
    tables: dict[str, tuple[int, ...]] = {}
    for opname, arity in A.signature.ops:
        if arity == 0:
            tables[opname] = (index[vector(A.tables[opname] * m)],)
        else:
            rows = map(images[opname].__getitem__,
                       itertools.product(range(size), repeat=arity - 1))
            tables[opname] = tuple(itertools.chain.from_iterable(rows))
    S = FiniteAlgebra(name or f"Sub({A.name}^{m})", size, A.signature, tables)
    return S, gen_ids, elems


def factor_through_split_epi(f: Homomorphism, r: Homomorphism,
                             s: Homomorphism) -> Homomorphism | None:
    """Factor f: R -> T through a split epi r: R -> S with section s.

    Requires r∘s = id.  Returns the unique u: S -> T with u∘r = f when it
    exists, which happens exactly when f = f∘s∘r; otherwise None.
    """
    if s.target != r.source or s.source != r.target:
        raise ValueError("r and s do not form a retraction/section pair")
    if f.source != r.source:
        raise ValueError("f must share its source with r")
    if compose(r, s) != identity_hom(r.target):
        raise ValueError("r∘s is not the identity")
    u = compose(f, s)
    return u if compose(u, r) == f else None


def parse_algebra(text: str) -> FiniteAlgebra:
    """Parse the line-oriented algebra format.

    Layout: ``algebra <name>``, ``size <n>``, the literal ``zero 0``, then
    per operation ``op <name> <arity>`` followed by n**arity entries in
    row-major order.  ``#`` starts a comment; table entries may be split
    across lines.
    """
    tokens: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        for word in raw.split("#", 1)[0].split():
            tokens.append((lineno, word))
    pos = 0

    def peek() -> tuple[int, str] | None:
        return tokens[pos] if pos < len(tokens) else None

    def take(what: str) -> tuple[int, str]:
        nonlocal pos
        if pos >= len(tokens):
            last = tokens[-1][0] if tokens else None
            raise ParseError(f"unexpected end of input, expected {what}", last)
        tok = tokens[pos]
        pos += 1
        return tok

    def take_int(what: str) -> tuple[int, int]:
        line, word = take(what)
        try:
            return line, int(word)
        except ValueError:
            raise ParseError(f"expected {what}, got {word!r}", line) from None

    line, word = take("the keyword 'algebra'")
    if word != "algebra":
        raise ParseError(f"expected 'algebra', got {word!r}", line)
    _, name = take("an algebra name")

    line, word = take("the keyword 'size'")
    if word != "size":
        raise ParseError(f"expected 'size', got {word!r}", line)
    line, size = take_int("the carrier size")
    if size < 1:
        raise ParseError("size must be at least 1", line)

    line, word = take("the 'zero 0' declaration")
    if word != "zero":
        raise ParseError(f"missing 'zero 0' declaration, got {word!r}", line)
    line, word = take("the zero element")
    if word != "0":
        raise ParseError("the distinguished point must be element 0", line)

    ops: list[tuple[str, int]] = []
    tables: dict[str, tuple[int, ...]] = {ZERO_OP: (0,)}
    while peek() is not None:
        line, word = take("the keyword 'op'")
        if word != "op":
            raise ParseError(f"expected 'op', got {word!r}", line)
        line, opname = take("an operation name")
        if opname == ZERO_OP or opname in tables:
            raise ParseError(f"duplicate operation {opname!r}", line)
        line, arity = take_int("an arity")
        if arity < 0:
            raise ParseError("arity must be non-negative", line)
        entries = []
        for _ in range(size ** arity):
            line, value = take_int(f"a table entry for {opname}")
            if not (0 <= value < size):
                raise ParseError(f"table entry {value} out of range 0..{size - 1}", line)
            entries.append(value)
        ops.append((opname, arity))
        tables[opname] = tuple(entries)
    signature = Signature(((ZERO_OP, 0),) + tuple(ops))
    return FiniteAlgebra(name, size, signature, tables)


def serialize_algebra(A: FiniteAlgebra) -> str:
    """Render an algebra in the format parse_algebra reads (round-trips)."""
    lines = [f"algebra {A.name}", f"size {A.size}", "zero 0"]
    for opname, arity in A.signature.ops:
        if opname == ZERO_OP:
            continue
        lines.append(f"op {opname} {arity}")
        table = A.tables[opname]
        if arity == 0:
            lines.append(str(table[0]))
            continue
        for start in range(0, len(table), A.size):
            lines.append(" ".join(str(v) for v in table[start:start + A.size]))
    return "\n".join(lines) + "\n"
