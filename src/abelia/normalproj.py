"""Normal-projection checks for pairs of finite pointed algebras.

The pair-level law says the congruence generated on A x B by collapsing
the B-axis slice {(a, 0)} to (0, 0) already relates every (a, b) to (0, b);
equivalently, every homomorphism f out of A x B killing the first inclusion
factors through the second projection.  check_np_pair decides this with one
congruence generation.  The remaining checks realize the elementwise
condition variants (tags b through e) over explicit finite families of
targets and parameter objects, plus two congruence-shaped implications that
must cohere with the pair-level verdict.

Every check reads the law on a map or rep table over A x B through two
helpers: ``_kills_slice`` (the premise t(u, 0) = 0) and ``_moved`` (the
points where t(u, v) != t(0, v)).  Conditions b to e share one loop,
``_element_report``, fed with each parameter object's generalized elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .caps import Caps, DEFAULT_CAPS
from .congruences import Congruence, all_congruences, cg
from .core import (CapExceeded, FiniteAlgebra, Homomorphism, ProductAlgebra,
                   SignatureMismatch, coordinates, enumerate_homomorphisms, product)


@dataclass(frozen=True)
class NpVerdict:
    """holds iff witness is absent; theta is the generated congruence and is
    always contained in the kernel of the second projection."""

    holds: bool
    theta: Congruence
    witness: tuple[int, int] | None


@dataclass(frozen=True)
class ConditionFailure:
    """A re-verifiable counterexample: the cited maps, the element where the
    conclusion equation breaks, and the two unequal values."""

    maps: tuple[tuple[str, Homomorphism], ...]
    point: tuple[int, ...]
    lhs: int
    rhs: int
    theta: Congruence | None = None


@dataclass(frozen=True)
class ConditionReport:
    condition: str
    instances: int
    failures: tuple[ConditionFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def _kills_slice(t, nb: int, us) -> bool:
    """Whether t(u, 0) = 0 for every u in us, where t is a table over
    A x B with (u, v) at u * nb + v."""
    return not any(t[u * nb] for u in us)


def _moved(t, nb: int, us, vs) -> list[tuple[int, int, int]]:
    """The points x where t(us[x], vs[x]) != t(0, vs[x]), in order, as
    (x, lhs, rhs); t is laid out as in ``_kills_slice``."""
    return [(x, lhs, t[v]) for x, (u, v) in enumerate(zip(us, vs))
            if (lhs := t[u * nb + v]) != t[v]]


def _np_witness(P: ProductAlgebra, theta: Congruence) -> tuple[int, int] | None:
    nb = P.right.size
    moved = _moved(theta.rep, nb, *coordinates((P.left.size, nb)))
    return divmod(moved[0][0], nb) if moved else None


def check_np_pair(A: FiniteAlgebra, B: FiniteAlgebra,
                  caps: Caps = DEFAULT_CAPS) -> NpVerdict:
    """Decide the normal-projection law for the pair (A, B).

    Generates theta = cg({((a,0),(0,0))}) on A x B and tests whether every
    (a, b) lands with (0, b).  This settles the law against every possible
    target at once: a homomorphism killing the first inclusion has kernel
    containing theta, and the quotient by theta realizes the extreme case.
    """
    P = product(A, B)
    theta = cg(P, ((P.pair(a, 0), 0) for a in range(A.size)), caps)
    witness = _np_witness(P, theta)
    return NpVerdict(witness is None, theta, witness)


def _maps(X: FiniteAlgebra, Y: FiniteAlgebra, caps: Caps, pins=dict) -> list[Homomorphism]:
    """Every homomorphism X -> Y extending the dict ``pins()``, listed once.  X
    is refused above ``caps.hom_src``, then Y above ``caps.hom_tgt``, before ``pins()``."""
    if X.size > caps.hom_src:
        raise CapExceeded("homomorphism enumeration source", X.size, caps.hom_src)
    if Y.size > caps.hom_tgt:
        raise CapExceeded("homomorphism enumeration target", Y.size, caps.hom_tgt)
    return list(enumerate_homomorphisms(X, Y, pins()))


def _unless_refused(check):
    """``check()``, or None when a cap refuses it."""
    try:
        return check()
    except CapExceeded:
        return None


def _element_report(tag: str, P: ProductAlgebra, targets: list[FiniteAlgebra],
                    parameter_objects: list[FiniteAlgebra], elements, caps: Caps,
                    pins=dict) -> ConditionReport:
    """Conditions b to e on P = A x B: over targets C, parameter objects X
    and maps f: P -> C, each element (roles, a, b) of ``elements(X)`` whose
    a f kills on the slice is an instance, and each x where f(a, b) moves
    is a failure.  The maps P -> C are listed once per C, after C's checks;
    ``elements`` checks X and runs once per X, after the first target's."""
    nb = P.right.size
    per_object: list[list] = []
    instances = 0
    failures: list[ConditionFailure] = []
    for C in targets:
        if C.signature != P.left.signature:
            raise SignatureMismatch(f"{C.name} does not share {P.left.name}'s signature")
        maps = _maps(P, C, caps, pins)
        for i, X in enumerate(parameter_objects):
            if i == len(per_object):
                per_object.append(elements(X))
            for f in maps:
                t = f.mapping
                for roles, a, b in per_object[i]:
                    if not _kills_slice(t, nb, a):
                        continue
                    instances += 1
                    for x, lhs, rhs in _moved(t, nb, a, b):
                        failures.append(ConditionFailure((("f", f), *roles), (x,), lhs, rhs))
    return ConditionReport(tag, instances, tuple(failures))


def check_condition_b(X: FiniteAlgebra, targets: list[FiniteAlgebra],
                      caps: Caps = DEFAULT_CAPS, tag: str = "b") -> ConditionReport:
    """Elementwise diagonal condition on X.

    For every homomorphism f: X x X -> C (over the listed targets) with
    f(x, 0) = 0 for all x, assert f(x, x) = f(0, x) for all x.  Tag "c" runs
    the identical elementwise form under its own label.
    """
    P = product(X, X)
    identity = [((), range(X.size), range(X.size))]
    return _element_report(tag, P, targets, [X], lambda _: identity, caps,
                           lambda: {P.pair(x, 0): 0 for x in range(X.size)})


def check_condition_d_instances(A: FiniteAlgebra, B: FiniteAlgebra,
                                targets: list[FiniteAlgebra],
                                parameter_objects: list[FiniteAlgebra],
                                caps: Caps = DEFAULT_CAPS) -> ConditionReport:
    """Generalized-element condition on the pair (A, B).

    For every f: A x B -> C and homomorphisms a: X -> A, b: X -> B from each
    parameter object, whenever f(a(x), 0) = 0 for all x, assert
    f(a(x), b(x)) = f(0, b(x)) for all x.  An instance is one (f, a, b)
    triple whose premise holds.
    """
    return _element_report("d", product(A, B), targets, parameter_objects,
                           lambda X: _pair_elements(A, B, X, caps), caps)


def _pair_elements(A: FiniteAlgebra, B: FiniteAlgebra, X: FiniteAlgebra, caps: Caps) -> list:
    """Condition d's elements of X: every pair of maps a: X -> A, b: X -> B."""
    if X.signature != A.signature:
        raise SignatureMismatch(f"{X.name} does not share {A.name}'s signature")
    a_maps = _maps(X, A, caps)
    b_maps = _maps(X, B, caps)
    return [((("a", a), ("b", b)), a.mapping, b.mapping)
            for a in a_maps for b in b_maps]


def check_condition_e_instances(X: FiniteAlgebra, targets: list[FiniteAlgebra],
                                parameter_objects: list[FiniteAlgebra],
                                caps: Caps = DEFAULT_CAPS) -> ConditionReport:
    """The diagonal instance of the generalized-element condition.

    As condition d with A = B = X and a = b = x ranging over homomorphisms
    from each parameter object into X.
    """

    def elements(U: FiniteAlgebra) -> list:
        if U.signature != X.signature:
            raise SignatureMismatch(f"{U.name} does not share {X.name}'s signature")
        return [((("x", x),), x.mapping, x.mapping) for x in _maps(U, X, caps)]

    return _element_report("e", product(X, X), targets, parameter_objects, elements, caps)


def _shifting_holds(P: ProductAlgebra, lattice: list[Congruence]) -> bool:
    """Whether every congruence in the lattice of P = A x B that collapses
    the slice {(a, 0)} to the point relates each (a, b) to (0, b)."""
    na, nb = P.left.size, P.right.size
    us, vs = coordinates((na, nb))
    # rep[0] == 0, so the slice collapses to the point iff its reps are 0
    return not any(_moved(theta.rep, nb, us, vs) for theta in lattice
                   if _kills_slice(theta.rep, nb, range(na)))


def shifting_shape_check(A: FiniteAlgebra, B: FiniteAlgebra,
                         caps: Caps = DEFAULT_CAPS) -> NpVerdict:
    """Decide the pair-level law by quantifying over the whole congruence
    lattice of A x B: every congruence collapsing the slice {(a, 0)} to the
    point must relate each (a, b) to (0, b).

    Agrees with check_np_pair by construction (the generated congruence is
    the finest one quantified over), but computes the verdict independently.
    The returned theta is the generated congruence, as in check_np_pair: the
    lattice lists congruences with more blocks first, and every congruence
    that collapses the slice contains it, so it is the first of them.
    """
    P = product(A, B)
    lattice = all_congruences(P, caps)
    holds = _shifting_holds(P, lattice)
    theta = next(t for t in lattice if _kills_slice(t.rep, P.right.size, range(P.left.size)))
    return NpVerdict(holds, theta, None if holds else _np_witness(P, theta))


def _centralic_violations(P: ProductAlgebra, lattice: list[Congruence]):
    """The violations of the centralic law over the lattice of P = A x B, in
    order, as (theta, (x, y, z), lhs, rhs)."""
    na, nb = P.left.size, P.right.size
    # (x, 0) and (y, 0) are elements x*nb and y*nb; (x, z) is x*nb + z.
    slice_pairs = [(x, y, x * nb, y * nb) for x in range(na) for y in range(na)]
    for theta in lattice:
        rep = theta.rep
        for x, y, u, v in slice_pairs:
            if rep[u] != rep[v]:
                continue
            for z in range(nb):
                if rep[u + z] != rep[v + z]:
                    yield theta, (x, y, z), rep[u + z], rep[v + z]


def centralic_check(A: FiniteAlgebra, B: FiniteAlgebra,
                    caps: Caps = DEFAULT_CAPS) -> ConditionReport:
    """Translation-invariance of slice collapses, over every congruence.

    For each congruence theta of A x B and elements x, y of A, z of B:
    (x, 0) theta (y, 0) must imply (x, z) theta (y, z).  Reports every
    violating (theta, x, y, z); lhs and rhs are the block representatives
    of (x, z) and (y, z).  Passing implies the pair-level law.
    """
    P = product(A, B)
    lattice = all_congruences(P, caps)
    # An instance is (theta, x, y, z) with (x, 0) theta (y, 0), that is
    # with equal reps at x and y in the slice rep[::nb].
    nb = P.right.size
    slices = [theta.rep[::nb] for theta in lattice]
    instances = nb * sum(s.count(r) for s in slices for r in s)
    failures = tuple(ConditionFailure((), point, lhs, rhs, theta)
                     for theta, point, lhs, rhs in _centralic_violations(P, lattice))
    return ConditionReport("centralic", instances, failures)


@dataclass(frozen=True)
class PairCrossCheck:
    """Per-pair verdicts; None marks a sub-check skipped for caps."""

    left: str
    right: str
    np_holds: bool
    shifting_holds: bool | None
    centralic_ok: bool | None
    d_instances: int
    d_failures: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class CrossCheckReport:
    pairs: tuple[PairCrossCheck, ...]
    discrepancies: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def cross_check_conditions(catalog: list[FiniteAlgebra],
                           parameter_objects: list[FiniteAlgebra] | None = None,
                           caps: Caps = DEFAULT_CAPS) -> CrossCheckReport:
    """Check the implication web between the condition variants.

    On every same-signature pair within caps: the lattice-quantified check
    must agree with the generated-congruence check; a centralic pass must
    come with the pair-level law; and when the law holds for the pair, no
    generalized-element instance with a parameter object X whose own
    diagonal law holds may fail.  Sub-checks beyond caps are skipped, not
    failed: a pair whose ``check_np_pair`` is refused is left out, a lattice
    refused by any cap (``lattice_count`` included) leaves
    ``shifting_holds`` and ``centralic_ok`` None, a refused family A x B -> C
    skips condition d, a refused parameter object adds no instances while
    the others run, and a refused diagonal law raises no discrepancy.  The
    targets of condition d are the catalog's members: those above
    ``caps.hom_tgt`` are dropped and the others still run.  The parameter
    objects default to the catalog too.
    """
    params = parameter_objects if parameter_objects is not None else list(catalog)
    pairs: list[PairCrossCheck] = []
    discrepancies: list[str] = []
    ordered = sorted(catalog, key=lambda X: X.name)
    for A in ordered:
        for B in ordered:
            if A.signature != B.signature:
                continue
            np = _unless_refused(lambda: check_np_pair(A, B, caps))
            if np is None:
                continue
            P = product(A, B)
            # One lattice serves both scans.
            lattice = _unless_refused(lambda: all_congruences(P, caps))
            if lattice is None:
                shifting = centralic = None
            else:
                shifting = _shifting_holds(P, lattice)
                if shifting != np.holds:
                    discrepancies.append(
                        f"lattice and generated-congruence checks disagree on ({A.name}, {B.name})")
                # Only the verdict is kept, so the scan stops at the first violation.
                centralic = next(_centralic_violations(P, lattice), None) is None
                if centralic and not np.holds:
                    discrepancies.append(
                        f"centralic passes but the pair law fails on ({A.name}, {B.name})")
            d = ConditionReport("d", 0, ())
            if np.holds:
                # A large target is dropped and the others still run.
                usable_targets = [C for C in catalog
                                  if C.signature == A.signature and C.size <= caps.hom_tgt]
                d = _unless_refused(lambda: _element_report(
                    "d", P, usable_targets, [X for X in params if X.signature == A.signature],
                    lambda X: _unless_refused(lambda: _pair_elements(A, B, X, caps)) or (),
                    caps)) or d
            d_failures: list[tuple[str, int]] = []
            for X in params:
                # Under np(A, B) condition d cannot fail, so this runs only
                # if the theory or the code is wrong.
                if n := sum(dict(f.maps)["a"].source is X for f in d.failures):
                    d_failures.append((X.name, n))
                    law = _unless_refused(lambda: check_np_pair(X, X, caps))
                    if law is not None and law.holds:
                        discrepancies.append(
                            f"generalized-element failure on ({A.name}, {B.name}) "
                            f"with parameter {X.name} though its diagonal law holds")
            pairs.append(PairCrossCheck(A.name, B.name, np.holds, shifting,
                                        centralic, d.instances, tuple(d_failures)))
    return CrossCheckReport(tuple(pairs), tuple(discrepancies))
