"""Constant-term factorization over a Weyl inversion set.

The global intertwining operator attached to a Weyl element w acts on
the spherical vector by the scalar

    r(w, lambda) = prod over alpha in inv(w) of r_alpha(<lambda, alpha^vee> / scale),

one rank-one factor per reduced positive relative root inverted by w, each
read in its local argument, the pairing over the root's local_scale.
``constant_term`` assembles that product symbolically and records the
per-root data.  ``multiplicativity_check`` verifies the cocycle identity
r(w1 w2) = r(w1, w2 lambda) r(w2, lambda) whenever lengths add by deciding
the inversion-set identity inv(w1 w2) = inv(w2) + w2^{-1} inv(w1) on root
indices, which is what makes the two atom products agree.
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from fractions import Fraction

from .characters import (
    AffineForm,
    UnramifiedCharacter,
    check_character,
    check_ray,
    coroot_data,
    rational_entries,
)
from .lfactors import (
    MeromorphicProduct,
    PoleAtEvaluation,
    evaluate_finite,
    poles_positive,
    r_alpha,
)
from .records import Record
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


class RankOneFactor(Record):
    """The factor r_alpha of one root; ``pairing`` is <lambda, alpha^vee> in
    the ray parameter, and ``local_argument`` the pairing over the local
    scale of the rank-one group, the argument ``product`` was built from."""

    __slots__ = ("root", "pairing", "local_argument", "product")

    def __init__(self, root: RelativeRoot, pairing: AffineForm, local_argument: AffineForm,
                 product: MeromorphicProduct) -> None:
        self.root, self.pairing, self.local_argument, self.product = (
            root, pairing, local_argument, product)


class ConstantTermReport(Record):
    __slots__ = ("weyl", "factors")

    def __init__(self, weyl: WeylElement, factors: tuple[RankOneFactor, ...]) -> None:
        self.weyl, self.factors = weyl, factors

    @property
    def product(self) -> MeromorphicProduct:
        """The factors' products, merged on each read."""
        return MeromorphicProduct.prod(f.product for f in self.factors)


def _factors(system: RelativeRootSystem, chi: UnramifiedCharacter,
             roots: tuple[RelativeRoot, ...], direction: Sequence | None = None,
             base: Sequence | None = None) -> tuple[RankOneFactor, ...]:
    """The rank-one factors of ``roots``, in the ray parameter along
    lambda = base + s * direction, or without a direction in each root's
    pairing variable."""
    return tuple(RankOneFactor(alpha, pairing, x, r_alpha(x, alpha.rank_one_type, eta))
                 for alpha, (pairing, x, eta)
                 in zip(roots, coroot_data(system, roots, chi, direction, base)))


# the key (system, chi, direction, base, w) of the last factors built, and those
# factors; RelativeRootSystem has no __eq__, so a system compares by identity
_last_factors: tuple = (None, ())


def _ray_factors(system: RelativeRootSystem, chi: UnramifiedCharacter, direction: Sequence,
                 base: Sequence | None, w: WeylElement) -> tuple[RankOneFactor, ...]:
    """The rank-one factors of inv(w) for lambda = base + s * direction.  Only the
    last call's are kept: a ray pole_profile right after constant_term reads them."""
    global _last_factors
    # the key holds rationals only: an entry that equals one but is not, such
    # as 1+0j, raises here instead of matching
    direction = rational_entries(direction)
    base = None if base is None else rational_entries(base)
    key = (system, chi, direction, base, w)
    last = _last_factors  # read once: another thread may store its own
    if last[0] == key:
        return last[1]
    factors = _factors(system, chi, system.inversion_set(w), direction, base)
    _last_factors = key, factors
    return factors


def constant_term(
    system: RelativeRootSystem,
    chi: UnramifiedCharacter,
    direction: Sequence,
    w: WeylElement,
    base: Sequence | None = None,
) -> ConstantTermReport:
    """Symbolic constant-term scalar for lambda = base + s * direction, at w as given:
    pass system.normalize(word) or system.longest_element() to report a normal form."""
    return ConstantTermReport(w, _ray_factors(system, chi, direction, base, w))


class RootPoleEntry(Record):
    __slots__ = ("root", "location", "order", "conditional")

    def __init__(self, root: RelativeRoot, location: Fraction, order: int,
                 conditional: bool) -> None:
        self.root, self.location, self.order, self.conditional = (
            root, location, order, conditional)

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
    *,
    w: WeylElement,
    variable: str = PAIRING_VARIABLE,
    include_conditional: bool = False,
) -> tuple[RootPoleEntry, ...]:
    """Positive real poles of the rank-one factors of the roots in inv(w).

    With ``variable == "pairing"`` each factor is read in its own pairing
    variable t = <lambda, alpha^vee> (pole at t = d_alpha for SL2-type,
    4 d_alpha for SU21-type when the composed character is trivial); with
    ``variable == "ray"`` the factor is a function of the ray parameter s
    through the supplied direction.
    """
    if variable not in (RAY_VARIABLE, PAIRING_VARIABLE):
        raise ConstantTermError(f"unknown pole variable {variable!r}")
    if variable == RAY_VARIABLE:
        if direction is None:
            raise ConstantTermError("ray variable needs a direction")
        factors = _ray_factors(system, chi, direction, base, w)
    else:  # the pairing variable t itself
        factors = _factors(system, chi, system.inversion_set(w))
    entries = []
    for f in factors:
        for e in poles_positive(f.product, include_conditional):
            entries.append(RootPoleEntry(f.root, e.location, e.order, e.conditional))
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
    """Verify r(w1 w2, lambda) = r(w1, w2 lambda) * r(w2, lambda), provided
    lengths add.

    Raises ConstantTermError when l(w1 w2) != l(w1) + l(w2); the cocycle
    holds in general but the factorization over inversion sets is only
    a disjoint union in the length-additive case.  Lengths are the sizes
    of inversion sets, so the words need not be reduced.

    The two sides are products of rank-one factors over inv(w1 w2) and over
    inv(w2) followed by w2^{-1} inv(w1), the roots of r(w1, w2 lambda) paired
    against lambda.  The check decides that inversion-set identity on root
    indices, which makes the two products agree factor by factor; no factor
    is built.  A character or ray that the factors could not be built from
    raises as building them would.
    """
    n = range(len(system.positive_roots))
    inv1 = system.inversion_indices(system.images(w1.word, n))
    images2 = system.images(w2.word, n)  # w2 x for each positive root x
    inv2 = system.inversion_indices(images2)
    inv12 = system.inversion_indices(system.images(w1.word, images2))
    if len(inv12) != len(inv1) + len(inv2):
        raise ConstantTermError("lengths do not add")
    # non-rational entries raise, as scaling the ray would
    rational_entries(direction if base is None else (*direction, *base))
    if inv12:
        check_ray(system, direction, base)
        check_character(system, chi)
    return sorted(inv2 + system.images(w2.word[::-1], inv1)) == inv12


# ---------------------------------------------------------------------------
# the rank-two worked example


def sl3_longest_factorization(q: int, s: complex) -> dict:
    """Constant term of split SL(3) at the longest Weyl element, on the
    principal ray with trivial character.

    The three rank-one factors carry the arguments s, s and 2s.  The
    numeric value at a finite place of residue size q is

        prod over t in (s, s, 2s) of (1 - q^(-1-t)) / (1 - q^(-t)),

    returned as None when the evaluation hits a pole or Re(s) <= 0.  The
    result has the rendered ``arguments`` and the ``value``.
    """
    arguments, product = _sl3_longest()
    value = None
    if complex(s).real > 0:
        try:
            value = evaluate_finite(product, q, s)
        except PoleAtEvaluation:
            value = None
    return {"arguments": list(arguments), "value": value}


@functools.cache
def _sl3_longest() -> tuple[tuple[str, ...], MeromorphicProduct]:
    """The rendered arguments and the merged product that
    :func:`sl3_longest_factorization` reads, built once per process."""
    system = restrict_roots(split_datum("A", 2))
    chi = UnramifiedCharacter.trivial(system.rank)
    report = constant_term(system, chi, system.principal_ray(), system.longest_element())
    return tuple(f.pairing.render() for f in report.factors), report.product
