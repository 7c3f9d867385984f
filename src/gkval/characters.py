"""Unramified characters of the maximal torus and their coroot compositions.

Exponents are exact: a complex scalar is a pair of rationals.  Two modes:

* number mode: the exponent lattice is all of C, nothing is reduced;
* function-field mode over a constant field of size q: imaginary parts
  are stored as rational multiples of 2*pi/log(q) and are reduced modulo
  the unramified-triviality lattice (multiples of 1 for the ground field,
  of 1/degree for a constant-field extension of that degree).

``pair`` and ``compose_with_coroot`` read :func:`coroot_data`, which pairs
a ray and a character, each scaled to integers over one denominator, with
one integer pairing vector per root, so the unramified-twist
compatibility (twisting the character by a point on a ray shifts the
local variable) holds by construction.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from fractions import Fraction

from .records import Record
from .roots import (
    SU21,
    RelativeRoot,
    RelativeRootSystem,
    local_scale,
)


class CharacterError(ValueError):
    """Malformed character or ray datum."""


NUMBER_MODE = "number"
FUNCTION_MODE = "function"


# One bound for every field size: a spec's constant field and an oracle's
# residue field.  CPython takes q^-n for integral 0 < n <= 100 by repeated
# squaring; from q = 2^16 on, the square q^64 overflows and the oracles'
# shell sums turn to nan.
MAX_FIELD_SIZE = 2**16 - 1


def is_field_size(q) -> bool:
    """Whether q is an integer p^k <= MAX_FIELD_SIZE, p prime and k >= 1."""
    # the size test comes first: the prime test divides by trial
    if not isinstance(q, int) or not 2 <= q <= MAX_FIELD_SIZE:
        return False
    p = next((d for d in range(2, math.isqrt(q) + 1) if q % d == 0), q)
    while q % p == 0:
        q //= p
    return q == 1


class RationalComplex(Record):
    """Exact complex scalar re + i*im (in function-field mode the imaginary
    unit carries the factor 2*pi/log q)."""

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction = Fraction(0), im: Fraction = Fraction(0)) -> None:
        self.re, self.im = re, im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def numeric(self, q: int | None = None) -> complex:
        im = float(self.im)
        if q is not None:
            im *= 2 * math.pi / math.log(q)
        return complex(float(self.re), im)


class AffineForm(Record):
    """a*s + b with exact rational coefficients."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction = Fraction(0), b: Fraction = Fraction(0)) -> None:
        self.a, self.b = a, b

    @staticmethod
    def of(a, b=0) -> "AffineForm":
        return AffineForm(Fraction(a), Fraction(b))

    def __call__(self, s: complex) -> complex:
        return float(self.a) * s + float(self.b)

    def render(self) -> str:
        if self.a == 0:
            return str(self.b)
        coef = "" if self.a == 1 else f"{self.a}*"
        if self.b == 0:
            return f"{coef}s"
        sign = "+" if self.b > 0 else "-"
        return f"{coef}s {sign} {abs(self.b)}"


def rational_entries(values) -> tuple[int | Fraction, ...]:
    """``values`` read as rationals: an int or Fraction entry as it is, any
    other through Fraction, which raises on an entry that is not rational.
    Every ray and exponent entry is read by this rule."""
    return tuple([v if type(v) is int or type(v) is Fraction else Fraction(v) for v in values])


def _scaled(values) -> tuple[tuple[int, ...], int]:
    """``values``, read by :func:`rational_entries`, as integer numerators
    over one common denominator."""
    ratios = [v.as_integer_ratio() for v in rational_entries(values)]
    den = math.lcm(*[d for _, d in ratios])
    return tuple([n * (den // d) for n, d in ratios]), den


class UnramifiedCharacter(Record):
    """Exponent vector over the relative character space, one coordinate per
    relative simple root; q is set exactly in function-field mode.  Each re
    and im is read by :func:`rational_entries` here, as a ray entry is."""

    __slots__ = ("exponents", "q")

    def __init__(self, exponents: tuple[RationalComplex, ...], mode: str = NUMBER_MODE,
                 q: int | None = None) -> None:
        if mode not in (NUMBER_MODE, FUNCTION_MODE):
            raise CharacterError(f"unknown mode {mode!r}")
        if mode == NUMBER_MODE and q is not None:
            raise CharacterError("number mode takes no constant-field size q")
        exponents = tuple(RationalComplex(*rational_entries((z.re, z.im))) for z in exponents)
        if mode == FUNCTION_MODE:
            if not is_field_size(q):
                raise CharacterError(
                    f"function-field mode needs a prime power q at most {MAX_FIELD_SIZE}")
            exponents = tuple(RationalComplex(z.re, z.im % 1) for z in exponents)
        self.exponents, self.q = exponents, q

    @staticmethod
    def trivial(rank: int):
        return UnramifiedCharacter((RationalComplex(),) * rank)

    @property
    def rank(self) -> int:
        return len(self.exponents)


class HeckeCharacterDescriptor(Record):
    """An unramified idele-class character of a field of given degree over
    the ground field, with an optional quadratic twist by the character of
    a relative quadratic extension.  The field is a function field with
    constant field of size q when q is set, a number field otherwise."""

    __slots__ = ("field_label", "degree", "exponent", "quad_twist", "q")

    def __init__(self, field_label: str, degree: int, exponent: RationalComplex,
                 quad_twist: bool = False, q: int | None = None) -> None:
        if degree < 1:
            raise CharacterError("field degree must be positive")
        if q is not None:  # im modulo 1/degree
            n, d = exponent.im.numerator, exponent.im.denominator
            exponent = RationalComplex(exponent.re, Fraction(n * degree % d, d * degree))
        self.field_label, self.degree, self.exponent = field_label, degree, exponent
        self.quad_twist, self.q = quad_twist, q

    @property
    def is_trivial(self) -> bool:
        return self.exponent.is_zero and not self.quad_twist

    @property
    def is_unitary(self) -> bool:
        return self.exponent.re == 0


def field_label(degree: int) -> str:
    """The label of a field of the given degree under a rank-one factor: the
    ground field F at degree 1, else F_alpha.  The even-degree field of an
    SU21-type root is E_alpha."""
    return "F" if degree == 1 else "F_alpha"


# ---------------------------------------------------------------------------
# pairing


def coroot_data(
    system: RelativeRootSystem,
    roots: Sequence[RelativeRoot],
    chi: UnramifiedCharacter | None = None,
    direction: Sequence | None = None,
    base: Sequence | None = None,
) -> list[tuple[AffineForm, AffineForm, HeckeCharacterDescriptor | None]]:
    """Per root alpha of ``roots``: the pairing <lambda, alpha^vee> as an affine
    form in s for lambda = base + s * direction (the unit form t without a
    direction), that pairing over local_scale(alpha), and chi composed with
    the coroot of alpha (None without chi): a descriptor over the field of
    the rank-one group, of degree d_alpha for SL2-type and 2 d_alpha for
    SU21-type, whose exponent is the pairing exponent over the local scale.

    The ray is scaled by :func:`_scaled` on every call, so that non-rational
    entries always raise; the ray, then chi, are checked if ``roots`` is not
    empty, and chi is scaled with them.  Each root then costs integer dot products
    with its pairing vector.
    """
    if direction is not None:
        dn, dd = _scaled(direction)
        bn, bd = (None, 1) if base is None else _scaled(base)
    if not roots:
        return []
    if direction is None:
        unit = AffineForm(Fraction(1), Fraction(0))
    else:
        check_ray(system, dn, bn)
    if chi is not None:
        check_character(system, chi)
        re_n, re_d = _scaled(z.re for z in chi.exponents)
        im_n, im_d = _scaled(z.im for z in chi.exponents)
    out = []
    for alpha in roots:
        vec = system.coroot_pairing_vector(alpha)
        scale = local_scale(alpha)
        if direction is None:
            pairing = unit
            x = unit if scale == 1 else AffineForm(Fraction(1, scale), unit.b)
        else:
            a = sum(map(operator.mul, dn, vec))
            b = 0 if bn is None else sum(map(operator.mul, bn, vec))
            pairing = AffineForm(Fraction(a, dd), Fraction(b, bd))
            x = pairing if scale == 1 else AffineForm(Fraction(a, dd * scale),
                                                      Fraction(b, bd * scale))
        eta = None
        if chi is not None:
            if alpha.rank_one_type == SU21:
                label, degree = "E_alpha", 2 * alpha.d_alpha
            else:
                label, degree = field_label(alpha.d_alpha), alpha.d_alpha
            exponent = RationalComplex(Fraction(sum(map(operator.mul, re_n, vec)), re_d * scale),
                                       Fraction(sum(map(operator.mul, im_n, vec)), im_d * scale))
            eta = HeckeCharacterDescriptor(label, degree, exponent, False, chi.q)
        out.append((pairing, x, eta))
    return out


def pair(
    system: RelativeRootSystem,
    direction: Sequence,
    alpha: RelativeRoot,
    base: Sequence | None = None,
) -> AffineForm:
    """<lambda, alpha^vee> as an affine form in the ray parameter s, for the
    ray lambda = base + s * direction (see :func:`coroot_data`)."""
    return coroot_data(system, (alpha,), direction=direction, base=base)[0][0]


def check_ray(system: RelativeRootSystem, direction: Sequence,
              base: Sequence | None = None) -> None:
    """Raise CharacterError unless the ray direction and, when given, the
    base point have one entry per relative simple root of ``system``."""
    if len(direction) != system.rank:
        raise CharacterError("ray direction has wrong rank")
    if base is not None and len(base) != system.rank:
        raise CharacterError("ray base point has wrong rank")


def check_character(system: RelativeRootSystem, chi: UnramifiedCharacter) -> None:
    """Raise CharacterError unless chi has the rank of ``system``."""
    if chi.rank != system.rank:
        raise CharacterError("character has wrong rank")


def compose_with_coroot(
    system: RelativeRootSystem,
    chi: UnramifiedCharacter,
    alpha: RelativeRoot,
) -> HeckeCharacterDescriptor:
    """chi composed with the coroot of alpha, in the rank-one local variable
    (see :func:`coroot_data`)."""
    return coroot_data(system, (alpha,), chi)[0][2]

