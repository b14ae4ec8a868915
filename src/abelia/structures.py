"""Internal subtractions and derived abelian-group structure.

An internal subtraction on A is a homomorphism s from product(A, A) to A
with s(x, x) = 0 and s(x, 0) = x.  When the pair-level projection law holds
at (A, A) and (A, A x A), such an s is unique, satisfies the group law
s(s(x,z), s(y,z)) = s(x,y), and induces an abelian group; the checks here
verify those claims table by table, and the crystallographic harness runs
them over a whole catalog with the preconditions tracked explicitly.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .core import (CapExceeded, FiniteAlgebra, Homomorphism, ProductAlgebra,
                   _hom_tables, broken_cell, coordinates, enumerate_homomorphisms,
                   first_mismatch, hom_violation, op_violation, pointwise, product,
                   subtraction_cells, unit_cells)
from .normalproj import _kills_slice, _moved, check_np_pair


@dataclass(frozen=True, slots=True)
class InternalSubtraction:
    algebra: FiniteAlgebra
    hom: Homomorphism

    def __post_init__(self):
        src = self.hom.source
        if not isinstance(src, ProductAlgebra) or src.left != self.algebra \
                or src.right != self.algebra or self.hom.target != self.algebra:
            raise ValueError("subtraction must map product(A, A) into A")
        n = self.algebra.size
        if (broken := broken_cell(self.hom.mapping, subtraction_cells(n))) is not None:
            raise ValueError(f"s({broken[0] // n},{broken[0] % n}) != {broken[1]}")

    @classmethod
    def _proved(cls, algebra: FiniteAlgebra, hom: Homomorphism) -> "InternalSubtraction":
        """A subtraction whose map the caller has proved to be one, built
        without the checks of ``__post_init__``."""
        s = object.__new__(cls)
        object.__setattr__(s, "algebra", algebra)
        object.__setattr__(s, "hom", hom)
        return s

    def __call__(self, x: int, y: int) -> int:
        return self.hom.mapping[x * self.algebra.size + y]


@dataclass(frozen=True)
class LawVerdict:
    holds: bool
    witness: tuple[int, ...] | None


def _subtraction_pins(A: FiniteAlgebra,
                      caps: Caps) -> tuple[ProductAlgebra, dict[int, int]]:
    """product(A, A) and the pins s(x, x) = 0 and s(x, 0) = x of the
    subtraction search, after the cap check.

    The element (x, y) of P is the table cell x * |A| + y, so the pins are
    the law's cells.  Homomorphism constraints prune as usual, so every map
    found is a subtraction.
    """
    P = product(A, A)
    if P.size > caps.structure_src:
        raise CapExceeded("subtraction search table", P.size, caps.structure_src)
    return P, dict(subtraction_cells(A.size))


def internal_subtraction_tables(A: FiniteAlgebra,
                                caps: Caps = DEFAULT_CAPS) -> Iterator[tuple[int, ...]]:
    """The tables s[x * |A| + y] of all internal subtractions on A, in
    lexicographic order, built lazily and wrapped in no object.

    Raises ``CapExceeded`` at the call when |A|^2 is above
    ``caps.structure_src``.  The CLI's ``internal-subtractions`` reads
    these tables into one flat bytearray, one byte per cell, when
    |A| <= 256.
    """
    P, pins = _subtraction_pins(A, caps)
    return _hom_tables(P, A, pins)


def find_internal_subtractions(A: FiniteAlgebra,
                               caps: Caps = DEFAULT_CAPS) -> list[InternalSubtraction]:
    """All internal subtractions on A, in lexicographic table order.

    The same search as ``internal_subtraction_tables``, read through
    ``enumerate_homomorphisms``: one ``InternalSubtraction`` over one
    ``Homomorphism`` per table, built without re-checking.  The CLI's
    ``abelian`` and ``crystallographic_report`` build all of them here
    and use the count and the first one.
    """
    P, pins = _subtraction_pins(A, caps)
    proved = InternalSubtraction._proved
    return [proved(A, h) for h in enumerate_homomorphisms(P, A, pins)]


def verify_group_law(s: InternalSubtraction) -> LawVerdict:
    """Check s(s(x,z), s(y,z)) = s(x,y) over all triples; first failing
    (x, y, z) in lexicographic order is the witness."""
    n = s.algebra.size
    cols = x, y, z = coordinates((n,) * 3)
    sub = pointwise(s.hom.mapping, n, 2)
    witness = first_mismatch(sub([sub([x, z]), sub([y, z])]), sub([x, y]), cols)
    return LawVerdict(witness is None, witness)


@dataclass(frozen=True)
class AbelianStructure:
    """Derived addition add(x,y) = s(x, s(0,y)) and negation neg(x) = s(0,x);
    only constructed once every abelian group axiom has been verified."""

    algebra: FiniteAlgebra
    subtraction: InternalSubtraction
    add: tuple[int, ...]
    neg: tuple[int, ...]

    def plus(self, x: int, y: int) -> int:
        return self.add[x * self.algebra.size + y]

    def minus(self, x: int) -> int:
        return self.neg[x]


@dataclass(frozen=True)
class AbelianResult:
    structure: AbelianStructure | None
    failed_axiom: str | None
    witness: tuple[int, ...] | None

    @property
    def ok(self) -> bool:
        return self.structure is not None


def derive_abelian(s: InternalSubtraction) -> AbelianResult:
    """Build the derived addition and negation and audit the group axioms.

    Axioms are checked in a fixed order (unit, associativity,
    commutativity) and the first failure is returned with the
    lexicographically first witness instead of a structure.  Two axioms
    need no check of their own:

    - inverse: the unit axiom gives s(0, s(0, x)) = 0 + x = x, so
      x + (-x) = s(x, x) = 0;
    - add is a homomorphism from A x A to A: every op f fixes 0, as
      f(0, ..., 0) = f(s(z, z), ...) = s(f(z, ...), f(z, ...)) = 0 because s
      is a homomorphism.  So neg = s(0, -) = s . <0, id> is a homomorphism,
      and add = s . (id x neg) is a composite of homomorphisms.
    """
    A = s.algebra
    n = A.size
    x, y = coordinates((n, n))
    neg = s.hom.mapping[:n]  # s(0, x), the first row
    sub = pointwise(s.hom.mapping, n, 2)
    add = tuple(sub([x, pointwise(neg, n, 1)([y])]))
    if (broken := broken_cell(add, unit_cells(n))) is not None:
        return AbelianResult(None, "unit", (broken[1],))  # a unit cell's value is its x
    plus = pointwise(add, n, 2)
    cols = a, b, c = coordinates((n,) * 3)
    if (witness := first_mismatch(plus([plus([a, b]), c]), plus([a, plus([b, c])]), cols)):
        return AbelianResult(None, "associativity", witness)
    # A first mismatch (x, y) in row-major order has x < y, as (y, x) fails too.
    if (witness := first_mismatch(plus([x, y]), plus([y, x]), (x, y))):
        return AbelianResult(None, "commutativity", witness)
    return AbelianResult(AbelianStructure(A, s, add, neg), None, None)


def check_homomorphic(g: Homomorphism, s: InternalSubtraction,
                      s_prime: InternalSubtraction) -> LawVerdict:
    """Check g(s(x,y)) = s'(g(x), g(y)) over all pairs; the witness is the
    lexicographically first failing (x, y)."""
    if g.source != s.algebra or g.target != s_prime.algebra:
        raise ValueError("map endpoints do not match the subtraction carriers")
    witness = op_violation(s.hom.mapping, s_prime.hom.mapping,
                           g.source.size, g.target.size, 2, g.mapping)
    return LawVerdict(witness is None, witness)


@dataclass(frozen=True)
class Construction1Report:
    """Stages of the ternary-map argument deriving the group law from the
    projection law at (A, A x A)."""

    f_is_homomorphism: bool
    zero_section_ok: bool
    np_holds: bool
    conclusion_ok: bool | None
    group_law: LawVerdict


def verify_proof_construction_1(s: InternalSubtraction,
                                caps: Caps = DEFAULT_CAPS) -> Construction1Report:
    """Materialize f(z, (x, y)) = s(s(x,z), s(y,z)) on product(A, A x A).

    Checks that f is a homomorphism and vanishes on the z-axis; when the
    projection law holds for (A, A x A), its translation-invariance
    conclusion f(z, w) = f(0, w) is exactly the group law for s.
    """
    A = s.algebra
    sq = product(A, A)
    # Decided first, so a cap refuses before the table is built.
    np = check_np_pair(A, sq, caps)
    # The domain's elements run in the row-major order on (z, x, y).
    z, x, y = coordinates((A.size,) * 3)
    sub = pointwise(s.hom.mapping, A.size, 2)
    table = tuple(sub([sub([x, z]), sub([y, z])]))
    f_hom = hom_violation(product(A, sq), A, table) is None
    zero_ok = _kills_slice(table, sq.size, range(A.size))
    conclusion = not _moved(table, sq.size, *coordinates((A.size, sq.size))) \
        if np.holds else None
    return Construction1Report(f_hom, zero_ok, np.holds, conclusion,
                               verify_group_law(s))


@dataclass(frozen=True)
class Construction2Report:
    """Stages of the two-variable comparison map tying preservation of the
    derived addition to preservation of the subtraction."""

    applicable: bool
    reason: str | None
    zero_ok: bool | None
    np_holds: bool | None
    translation_ok: bool | None
    addition_preserved: bool | None
    subtraction_preserved: bool | None


def verify_proof_construction_2(g: Homomorphism, s: InternalSubtraction,
                                s_prime: InternalSubtraction,
                                caps: Caps = DEFAULT_CAPS) -> Construction2Report:
    """Materialize f(x, y) = s'(g(a(x,y)), a'(g(x), g(y))) on product(X, X).

    Applicable only when both subtractions derive abelian structures.  Then
    f(x, 0) = 0 always; when the projection law holds at (X, X), the forced
    translation f(x, y) = f(0, y) makes g preserve addition, which must
    coincide with preserving subtraction.
    """
    if g.source != s.algebra or g.target != s_prime.algebra:
        raise ValueError("map endpoints do not match the subtraction carriers")
    left = derive_abelian(s)
    right = derive_abelian(s_prime)
    if not left.ok or not right.ok:
        which = s.algebra.name if not left.ok else s_prime.algebra.name
        return Construction2Report(False, f"no abelian structure on {which}",
                                   None, None, None, None, None)
    a, a_p = left.structure, right.structure
    X = g.source
    # The table runs over X x X in row-major order on (x, y).
    xs, ys = coordinates((X.size, X.size))
    table = tuple(s_prime(g(a.plus(x, y)), a_p.plus(g(x), g(y))) for x, y in zip(xs, ys))
    zero_ok = _kills_slice(table, X.size, range(X.size))
    np = check_np_pair(X, X, caps)
    translation = not _moved(table, X.size, xs, ys) if np.holds else None
    addition = op_violation(a.add, a_p.add, X.size, g.target.size, 2, g.mapping) is None
    subtraction = check_homomorphic(g, s, s_prime).holds
    return Construction2Report(True, None, zero_ok, np.holds, translation,
                               addition, subtraction)


@dataclass(frozen=True)
class CrystalEntry:
    """Per-algebra survey line; anomalies are findings outside verified
    preconditions, violations (collected on the report) falsify the theory."""

    name: str
    np_self: bool
    np_square: bool
    subtractions: int
    group_law_ok: bool | None
    abelian: bool | None
    anomalies: tuple[str, ...]


@dataclass(frozen=True)
class CrystalReport:
    entries: tuple[CrystalEntry, ...]
    hom_checks: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def crystallographic_report(catalog: list[FiniteAlgebra],
                            caps: Caps = DEFAULT_CAPS) -> CrystalReport:
    """Survey a catalog for internal subtractions and abelian structure.

    Per algebra: both projection-law preconditions, the subtraction count,
    and (for the first subtraction found) the group law and derived
    structure.  Where the preconditions verify, uniqueness, the group law,
    abelianness, and homomorphicity of every map between such algebras are
    hard assertions; where they fail, findings are recorded as anomalies.
    """
    entries: list[CrystalEntry] = []
    violations: list[str] = []
    verified: list[tuple[FiniteAlgebra, InternalSubtraction]] = []
    for A in sorted(catalog, key=lambda X: X.name):
        np_self = check_np_pair(A, A, caps).holds
        np_square = check_np_pair(A, product(A, A), caps).holds
        subs = find_internal_subtractions(A, caps)
        anomalies: list[str] = []
        preconditions = np_self and np_square
        group_ok: bool | None = None
        abelian: bool | None = None
        if subs:
            law = verify_group_law(subs[0])
            group_ok = law.holds
            result = derive_abelian(subs[0])
            abelian = result.ok
        problems: list[str] = []
        if len(subs) > 1:
            problems.append(f"{A.name}: {len(subs)} internal subtractions")
        if subs and not group_ok:
            problems.append(f"{A.name}: group law fails at {law.witness}")
        if subs and not abelian:
            problems.append(f"{A.name}: derived structure fails {result.failed_axiom}")
        if preconditions:
            violations.extend(problems)
            if subs and abelian:
                verified.append((A, subs[0]))
        else:
            anomalies.extend(problems)
        entries.append(CrystalEntry(A.name, np_self, np_square, len(subs),
                                    group_ok, abelian, tuple(anomalies)))
    hom_checks = 0
    # Only the subtraction is audited: the derived add and neg follow.  A
    # homomorphism g fixes 0, so if g preserves s, then
    # g(neg x) = g(s(0, x)) = s'(0, g x) = neg'(g x) and
    # g(x + y) = g(s(x, neg y)) = s'(g x, neg'(g y)) = g x +' g y.
    for A, s in verified:
        for B, s_p in verified:
            if A.signature != B.signature:
                continue
            if A.size > caps.hom_src or B.size > caps.hom_tgt:
                continue
            for g in enumerate_homomorphisms(A, B):
                hom_checks += 1
                sub_ok = check_homomorphic(g, s, s_p)
                if not sub_ok.holds:
                    violations.append(
                        f"map {A.name}->{B.name} {list(g.mapping)} not homomorphic "
                        f"at {sub_ok.witness}")
    return CrystalReport(tuple(entries), hom_checks, tuple(violations))
