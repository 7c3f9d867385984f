"""Constant-term factorization over a Weyl inversion set.

The global intertwining operator attached to a Weyl element w acts on
the spherical vector by the scalar

    r(w, lambda) = prod over alpha in inv(w) of r_alpha(<lambda, alpha^vee>),

one rank-one factor per reduced positive relative root inverted by w.
``constant_term`` assembles that product symbolically and records the
per-root data; ``multiplicativity_check`` verifies the cocycle identity
r(w1 w2) = r(w1, w2 lambda) r(w2, lambda) at the level of atom multisets
whenever lengths add.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .characters import (
    AffineForm,
    HeckeCharacterDescriptor,
    UnramifiedCharacter,
    compose_with_coroot,
    pair,
)
from .lfactors import (
    MeromorphicProduct,
    PoleAtEvaluation,
    evaluate_finite,
    poles_positive,
    r_alpha,
)
from .roots import (
    RelativeRoot,
    RelativeRootSystem,
    RootSystemError,
    WeylElement,
    by_length_class,
    local_scale,
    restrict_roots,
    split_datum,
)


class ConstantTermError(ValueError):
    pass


PAIRING_VARIABLE = "pairing"
RAY_VARIABLE = "ray"


@dataclass(frozen=True)
class RankOneFactor:
    root: RelativeRoot
    pairing: AffineForm        # <lambda, alpha^vee> in the ray parameter
    local_argument: AffineForm  # pairing / local scale of the rank-one group
    character: HeckeCharacterDescriptor
    product: MeromorphicProduct

    def to_json(self) -> dict:
        return {
            "root": list(self.root.coords),
            "length_class": self.root.length_class,
            "d_alpha": self.root.d_alpha,
            "rank_one_type": self.root.rank_one_type,
            "pairing": self.pairing.render(),
            "local_argument": self.local_argument.render(),
            "factor": self.product.to_json(),
        }


@dataclass(frozen=True)
class ConstantTermReport:
    weyl: WeylElement
    factors: tuple[RankOneFactor, ...]
    product: MeromorphicProduct

    def to_json(self) -> dict:
        return {
            "weyl_word": list(self.weyl.word),
            "length": len(self.factors),
            "factors": [f.to_json() for f in self.factors],
            "product": self.product.to_json(),
        }

    def evaluate_finite(self, q: int, s: complex) -> complex:
        return evaluate_finite(self.product, q, s)


def _rank_one_factor(system: RelativeRootSystem, chi: UnramifiedCharacter,
                     alpha: RelativeRoot, pairing: AffineForm) -> RankOneFactor:
    eta = compose_with_coroot(system, chi, alpha)
    return RankOneFactor(
        root=alpha,
        pairing=pairing,
        local_argument=pairing.scale(Fraction(1, local_scale(alpha))),
        character=eta,
        product=r_alpha(pairing, alpha.d_alpha, alpha.rank_one_type, eta),
    )


def _factor_table(system: RelativeRootSystem, chi: UnramifiedCharacter,
                  direction: Sequence, base: Sequence | None):
    """Root -> its rank-one factor for lambda = base + s * direction.

    A factor does not depend on w, so it is built when first asked for and
    kept in a table on the system.  The system keeps only the table of its
    most recent (chi, direction, base), which bounds memory on sweeps that
    draw a fresh character per operation.
    """
    key = (chi, tuple(direction), None if base is None else tuple(base))
    if system.factor_cache is None or system.factor_cache[0] != key:
        system.factor_cache = (key, {})
    table = system.factor_cache[1]

    def factor(alpha: RelativeRoot) -> RankOneFactor:
        found = table.get(alpha.index)
        if found is None:
            pairing = pair(system, direction, alpha, base)
            found = table[alpha.index] = _rank_one_factor(system, chi, alpha, pairing)
        return found

    return factor


def constant_term(
    system: RelativeRootSystem,
    chi: UnramifiedCharacter,
    direction: Sequence,
    w: WeylElement | Sequence[int],
    base: Sequence | None = None,
) -> ConstantTermReport:
    """Symbolic constant-term scalar for lambda = base + s * direction."""
    w = system.normalize(w.word if isinstance(w, WeylElement) else w)
    return _normal_report(system, chi, direction, w, base)


def _normal_report(system: RelativeRootSystem, chi: UnramifiedCharacter,
                   direction: Sequence, w: WeylElement,
                   base: Sequence | None) -> ConstantTermReport:
    """:func:`constant_term` for a w already in normal form."""
    factor = _factor_table(system, chi, direction, base)
    factors = tuple(factor(alpha) for alpha in system.inversion_set(w))
    product = MeromorphicProduct(term for f in factors for term in f.product)
    return ConstantTermReport(weyl=w, factors=factors, product=product)


@dataclass(frozen=True)
class RootPoleEntry:
    root: RelativeRoot
    location: Fraction
    order: int
    conditional: bool

    def to_json(self) -> dict:
        return {
            "root": list(self.root.coords),
            "length_class": self.root.length_class,
            "location": str(self.location),
            "order": self.order,
            "conditional": self.conditional,
        }


def pole_profile(
    system: RelativeRootSystem,
    chi: UnramifiedCharacter,
    direction: Sequence | None = None,
    base: Sequence | None = None,
    w: WeylElement | Sequence[int] | None = None,
    variable: str = PAIRING_VARIABLE,
    include_conditional: bool = False,
) -> tuple[RootPoleEntry, ...]:
    """Positive real poles of the per-root rank-one factors.

    The roots are the inversion set of w when w is given, otherwise all
    positive reduced roots.  With ``variable == "pairing"`` each factor is
    read in its own pairing variable
    t = <lambda, alpha^vee> (pole at t = d_alpha for SL2-type, 4 d_alpha
    for SU21-type when the composed character is trivial); with
    ``variable == "ray"`` the factor is a function of the ray parameter s
    through the supplied direction.
    """
    if variable not in (RAY_VARIABLE, PAIRING_VARIABLE):
        raise ConstantTermError(f"unknown pole variable {variable!r}")
    if w is not None:
        word = w.word if isinstance(w, WeylElement) else w
        roots = system.inversion_set(system.normalize(word))
    else:
        roots = system.positive_roots
    if variable == RAY_VARIABLE:
        if direction is None:
            raise ConstantTermError("ray variable needs a direction")
        factor = _factor_table(system, chi, direction, base)
    else:  # the pairing variable t itself: the unit form
        factor = functools.partial(_rank_one_factor, system, chi,
                                   pairing=AffineForm(Fraction(1), Fraction(0)))
    entries = []
    for alpha in roots:
        for e in poles_positive(factor(alpha).product, include_conditional).entries:
            entries.append(RootPoleEntry(alpha, e.location, e.order, e.conditional))
    return tuple(entries)


# ---------------------------------------------------------------------------
# length-class pole ratios


def component_pole_ratio(system: RelativeRootSystem, component: int = 0) -> dict:
    """Measured pole locations per length class on one component, in the
    pairing variable, together with the long/short ratio when both
    classes occur."""
    roots = [r for r in system.positive_roots if r.component == component]
    if not roots:
        raise ConstantTermError(f"no component {component}")
    try:
        poles = by_length_class(roots, lambda r: Fraction(local_scale(r)),
                                "pole locations")
    except RootSystemError as exc:
        raise ConstantTermError(str(exc)) from None
    out: dict = {"poles": poles}
    if "long" in poles and "short" in poles:
        out["long_over_short"] = poles["long"] / poles["short"]
        out["short_over_long"] = poles["short"] / poles["long"]
    return out


def corollary_ratio_table(component_type: str) -> dict:
    """Tabulated rule for the ratio of pole locations between length
    classes of an irreducible relative diagram with trivial character:

    * B family, C family and F4: the short-root pole sits at twice the
      long-root pole;
    * G2: the long-root pole sits at three times the short-root pole;
    * simply laced (A, D, E): all poles agree.

    Each row is the ratio of the degrees that :func:`proposition_table`
    gives the two length classes, read through :func:`local_scale`
    (pole at d_alpha, or 4 d_alpha for SU21-type).  For C this is the
    SU(n,n) row short: 2d', long: d'.
    """
    family = component_type[0]
    if family in ("A", "D", "E"):
        return {"kind": "equal"}
    if family in ("B", "C") or component_type == "F4":
        # B2 = C2 takes the same length-keyed rule as B_n and C_n.
        return {"kind": "ratio", "numerator": "short", "denominator": "long",
                "ratio": 2}
    if component_type == "G2":
        # 3D4 records its orbit-of-three roots as long (see the roots
        # module docstring), so the rule reads long over short.
        return {"kind": "ratio", "numerator": "long", "denominator": "short",
                "ratio": 3}
    raise ConstantTermError(f"unknown component type {component_type!r}")


# ---------------------------------------------------------------------------
# cocycle / multiplicativity


def multiplicativity_check(
    system: RelativeRootSystem,
    chi: UnramifiedCharacter,
    direction: Sequence,
    w1: WeylElement,
    w2: WeylElement,
    base: Sequence | None = None,
) -> bool:
    """Verify r(w1 w2, lambda) = r(w1, w2 lambda) * r(w2, lambda) as
    normalized atom products, provided lengths add.

    Raises ConstantTermError when l(w1 w2) != l(w1) + l(w2); the cocycle
    holds in general but the factorization over inversion sets is only
    a disjoint union in the length-additive case.
    """
    w1 = system.normalize(w1.word)
    w2 = system.normalize(w2.word)
    w12 = system.multiply(w1, w2)
    if len(w12.word) != len(w1.word) + len(w2.word):
        raise ConstantTermError("lengths do not add")
    total = _normal_report(system, chi, direction, w12, base).product
    # r(w2, lambda), then r(w1, w2 lambda): the translated roots w2^{-1} beta
    # paired against lambda
    pairs = list(_normal_report(system, chi, direction, w2, base).product)
    factor = _factor_table(system, chi, direction, base)
    translated = system._images(tuple(reversed(w2.word)),
                                [beta.index for beta in system.inversion_set(w1)])
    for x in translated:
        pairs.extend(factor(system.positive_roots[x]).product)
    return total == MeromorphicProduct(pairs)


# ---------------------------------------------------------------------------
# the rank-two worked example


def sl3_longest_factorization(q: int, s: complex) -> dict:
    """Constant term of split SL(3) at the longest Weyl element, on the
    principal ray with trivial character.

    The three rank-one factors carry the arguments s, s and 2s.  The
    numeric value at a finite place of residue size q is

        prod over t in (s, s, 2s) of (1 - q^(-1-t)) / (1 - q^(-t)),

    returned as None when the evaluation hits a pole or Re(s) <= 0.
    """
    report = _sl3_longest_report()
    value = None
    if complex(s).real > 0:
        try:
            value = report.evaluate_finite(q, s)
        except PoleAtEvaluation:
            value = None
    return {
        "word": list(report.weyl.word),
        "arguments": [f.pairing.render() for f in report.factors],
        "report": report,
        "value": value,
    }


@functools.cache
def _sl3_longest_report() -> ConstantTermReport:
    """The symbolic report of :func:`sl3_longest_factorization`, which does
    not depend on (q, s), built once per process."""
    system = restrict_roots(split_datum("A", 2))
    chi = UnramifiedCharacter.trivial(system.rank)
    return constant_term(system, chi, system.principal_ray(), system.longest_element())
