"""Formal products of completed Hecke L-factors and epsilon factors.

A product is a multiset of atoms ``L_K(a*s + b, eta)^n`` and
``eps_K(a*s + b, eta)^n`` (merged, zero exponents dropped), whose order is
fixed by ``LFactorAtom.sort_key`` when the product is read.  Products
stay symbolic; an atom is evaluated at finite places only, as an Euler
factor.  The archimedean Gamma factors are the oracles' own.

Positive-pole bookkeeping rests on the standard analytic facts about
completed Hecke L-functions over a number field or a function field:

* ``L(x, 1)`` (trivial character) has simple poles exactly at x = 0, 1
  and no zeros with Re(x) >= 1;
* ``L(x, eta)`` for a nontrivial unitary unramified character is entire
  and has no zeros with Re(x) >= 1;
* epsilon factors are entire and nowhere vanishing.

Hence the only unconditional poles of a normalized product on the
positive real axis come from numerator ``L`` atoms with trivial
character, through a*s + b = 1.  Numerator atoms with a nontrivial
unitary character are reported, on request, as conditional candidates.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .characters import (
    AffineForm,
    HeckeCharacterDescriptor,
    RationalComplex,
    field_label,
)
from .records import Record
from .roots import SL2, SU21


class LFactorError(ValueError):
    pass


class PoleAtEvaluation(ArithmeticError):
    """An evaluation hit a pole of a Gamma or Euler factor."""


KIND_L = "L"
KIND_EPS = "eps"

PLACE_FINITE = "finite"


def _shared_key(place_kind: str, eta: HeckeCharacterDescriptor) -> tuple:
    """The place and character part of an atom's key, which every atom of one
    rank-one quotient shares."""
    z = eta.exponent
    return (place_kind, eta.field_label, eta.degree, eta.quad_twist, eta.q,
            *z.re.as_integer_ratio(), *z.im.as_integer_ratio())


class LFactorAtom(Record):
    """One L or eps factor (``kind`` is KIND_L or KIND_EPS); the character
    names the field it lives over.  Unlike other records, an atom compares
    and hashes by one stored key."""

    __slots__ = ("kind", "place_kind", "arg", "character", "_key", "_hash")

    def __init__(self, kind: str, place_kind: str, arg: AffineForm,
                 character: HeckeCharacterDescriptor) -> None:
        if kind not in (KIND_L, KIND_EPS):
            raise LFactorError(f"unknown atom kind {kind!r}")
        self._fill(kind, place_kind, arg, character,
                   (kind, *arg.a.as_integer_ratio(), *arg.b.as_integer_ratio(),
                    *_shared_key(place_kind, character)))

    def _fill(self, kind: str, place_kind: str, arg: AffineForm,
              character: HeckeCharacterDescriptor, key: tuple) -> None:
        # every field, with each rational as its integer ratio: kind, a, b,
        # then _shared_key.  Keys are equal exactly when the fields are, so
        # product merges compare flat tuples and never reach Fraction.__eq__
        self.kind, self.place_kind, self.arg, self.character = kind, place_kind, arg, character
        self._key, self._hash = key, hash(key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def sort_key(self) -> tuple:
        """A total order: atoms with equal keys are equal."""
        eta = self.character
        # function-field atoms (q set) sort before number-field ones
        return (self.kind, eta.field_label, eta.degree, self.place_kind, eta.quad_twist,
                eta.exponent.re, eta.exponent.im, self.arg.a, self.arg.b,
                eta.q is None, eta.q or 0)


def _sort_keys(atoms: list[LFactorAtom]) -> list[tuple]:
    """LFactorAtom.sort_key of each atom, with every rational r read as the
    integer r * m for one common multiple m of all their denominators: the
    same order, compared in C without Fraction.__eq__ or __lt__."""
    keys = [atom._key for atom in atoms]  # kind, a, b, place, label, degree, twist, q, re, im
    m = math.lcm(*[d for k in keys for d in (k[2], k[4], k[11], k[13])])
    return [(k[0], k[6], k[7], k[5], k[8], k[10] * (m // k[11]), k[12] * (m // k[13]),
             k[1] * (m // k[2]), k[3] * (m // k[4]), k[9] is None, k[9] or 0) for k in keys]


def _merged(pairs: Iterable[tuple[LFactorAtom, int]]) -> dict[LFactorAtom, int]:
    """Atom to summed exponent, zero sums dropped."""
    merged: dict[LFactorAtom, int] = {}
    for atom, n in pairs:
        merged[atom] = merged.get(atom, 0) + n
    for atom in [atom for atom, n in merged.items() if n == 0]:
        del merged[atom]
    return merged


class MeromorphicProduct:
    """Product of L/eps atoms: a map from atom to nonzero integer exponent."""

    __slots__ = ("_terms",)

    def __init__(self, pairs: Iterable[tuple[LFactorAtom, int]] = ()) -> None:
        pairs = list(pairs)
        if not all(isinstance(n, int) for _, n in pairs):
            raise LFactorError("exponents must be integers")
        self._terms = _merged(pairs)

    @classmethod
    def _of(cls, terms: dict[LFactorAtom, int]) -> "MeromorphicProduct":
        """The product whose terms are ``terms``, integer exponents already merged."""
        product = cls.__new__(cls)
        product._terms = terms
        return product

    @staticmethod
    def prod(factors: Iterable["MeromorphicProduct"]) -> "MeromorphicProduct":
        """The product of ``factors``, merged from their terms unsorted."""
        return MeromorphicProduct._of(_merged(p for f in factors for p in f._terms.items()))

    def __iter__(self) -> Iterator[tuple[LFactorAtom, int]]:
        terms = list(self._terms.items())
        keys = _sort_keys([atom for atom, _ in terms])
        return iter([terms[i] for i in sorted(range(len(terms)), key=keys.__getitem__)])

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MeromorphicProduct) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        return f"MeromorphicProduct({list(self)!r})"

    # -- serialization ------------------------------------------------------

    def to_json(self) -> list[dict]:
        """One object per atom; a function-field character also records the
        constant-field size ``q``."""
        out = []
        for atom, n in self:
            eta = atom.character
            character = {
                "exponent": [str(eta.exponent.re), str(eta.exponent.im)],
                "twist": eta.quad_twist,
            }
            if eta.q is not None:
                character["q"] = eta.q
            out.append(
                {
                    "kind": atom.kind,
                    "field": {
                        "label": eta.field_label,
                        "degree": eta.degree,
                        "place_kind": atom.place_kind,
                    },
                    "a": str(atom.arg.a),
                    "b": str(atom.arg.b),
                    "character": character,
                    "exponent": n,
                }
            )
        return out

    @staticmethod
    def from_json(data: list[dict]) -> "MeromorphicProduct":
        pairs = []
        for entry in data:
            atom = LFactorAtom(
                kind=entry["kind"],
                place_kind=entry["field"]["place_kind"],
                arg=AffineForm(Fraction(entry["a"]), Fraction(entry["b"])),
                character=HeckeCharacterDescriptor(
                    field_label=entry["field"]["label"],
                    degree=int(entry["field"]["degree"]),
                    exponent=RationalComplex(
                        Fraction(entry["character"]["exponent"][0]),
                        Fraction(entry["character"]["exponent"][1]),
                    ),
                    quad_twist=bool(entry["character"]["twist"]),
                    q=entry["character"].get("q"),
                ),
            )
            pairs.append((atom, int(entry["exponent"])))
        return MeromorphicProduct(pairs)


# ---------------------------------------------------------------------------
# the rank-one factor


def r_alpha(
    x: AffineForm,
    rank_one_type: str,
    eta: HeckeCharacterDescriptor,
) -> MeromorphicProduct:
    """The rank-one quotient of completed L- and eps-factors in the local
    argument x, the pairing over roots.local_scale of the root.

    SL2-type (SL2 over the field K of the root, of the degree of eta):

        L_K(x, eta) / (eps_K(x, eta) L_K(1 + x, eta)).

    SU21-type (special unitary group in three variables, E/K the
    quadratic layer under the field E of eta, whose degree is even):

        L_E(x, eta) / (eps_E L_E(1 + x, eta))
          * L_K(2x, eta' tw) / (eps_K L_K(1 + 2x, eta' tw)),

    with eta' the restriction of eta to K and tw the quadratic class
    character of E/K.  The 2 is x_{beta + sigma beta} = 2 x_beta, not a scale.
    """
    # the atoms of one factor are distinct, so its terms need no merging
    if rank_one_type == SL2:
        return MeromorphicProduct._of(_quotient(x, eta))
    if rank_one_type == SU21:
        if eta.degree % 2:
            raise LFactorError("character lives over the wrong field")
        # eta' tw over K, of half the degree: the exponent doubles (the modulus
        # of E restricts to the square of K's), a twist of eta, the base change
        # of tw, restricts trivially, and tw sets the twist
        degree, re, im = eta.degree // 2, eta.exponent.re, eta.exponent.im
        eta_k = HeckeCharacterDescriptor(
            field_label(degree), degree,
            RationalComplex(Fraction(2 * re.numerator, re.denominator),
                            Fraction(2 * im.numerator, im.denominator)),
            True, eta.q)
        a, b = x.a, x.b
        twice = AffineForm(Fraction(2 * a.numerator, a.denominator),
                           Fraction(2 * b.numerator, b.denominator))
        return MeromorphicProduct._of(_quotient(x, eta) | _quotient(twice, eta_k))
    raise LFactorError(f"unknown rank-one type {rank_one_type!r}")


def _quotient(x: AffineForm, eta: HeckeCharacterDescriptor) -> dict[LFactorAtom, int]:
    """The terms of L(x, eta) / (eps(x, eta) L(1 + x, eta))."""
    shared = _shared_key(PLACE_FINITE, eta)
    an, ad = x.a.as_integer_ratio()
    n, d = x.b.as_integer_ratio()
    terms = {}
    for kind, arg, b, exponent in ((KIND_L, x, n, 1), (KIND_EPS, x, n, -1),
                                   (KIND_L, AffineForm(x.a, Fraction(n + d, d)), n + d, -1)):
        atom = LFactorAtom.__new__(LFactorAtom)
        atom._fill(kind, PLACE_FINITE, arg, eta, (kind, an, ad, b, d, *shared))
        terms[atom] = exponent
    return terms


# ---------------------------------------------------------------------------
# poles


class PoleEntry(Record):
    __slots__ = ("location", "order", "conditional")

    def __init__(self, location: Fraction, order: int, conditional: bool) -> None:
        self.location, self.order, self.conditional = location, order, conditional


def poles_positive(
    product: MeromorphicProduct, include_conditional: bool = False
) -> tuple[PoleEntry, ...]:
    """Poles of a normalized product on the positive real s-axis, as a tuple
    sorted by location, unconditional before conditional at one location,
    then by the atoms' order.  Conditional candidates are listed only with
    ``include_conditional``.

    Locations are reported in the variable s of the atoms' affine forms
    (the caller fixed that variable when building the arguments).
    """
    entries = []
    for atom, n in product._terms.items():
        if atom.kind != KIND_L or n <= 0:
            continue
        _, an, ad, bn, bd = atom._key[:5]
        # (1 - b) / a > 0 on integer ratios: denominators are positive
        top = bd - bn
        if top * an <= 0:
            continue
        if atom.character.is_trivial:
            conditional = False
        elif include_conditional and atom.character.is_unitary:
            conditional = True
        else:
            continue
        entries.append((Fraction(top * ad, bd * an), conditional, atom, n))
    if len(entries) > 1:  # by location, then conditional, then atom order, compared in C
        m = math.lcm(*[loc.denominator for loc, _, _, _ in entries])
        keys = [(loc.numerator * (m // loc.denominator), conditional, atom_key)
                for (loc, conditional, _, _), atom_key
                in zip(entries, _sort_keys([atom for _, _, atom, _ in entries]))]
        entries = [entries[i] for i in sorted(range(len(entries)), key=keys.__getitem__)]
    return tuple(PoleEntry(loc, n, conditional) for loc, conditional, _, n in entries)


# ---------------------------------------------------------------------------
# evaluation


def local_euler_value(atom: LFactorAtom, q: int, s: complex) -> complex:
    """Value of one atom at a finite place with residue size q of the
    ground field; the atom's field is taken inert (residue size
    q^degree), and a quadratic twist contributes the sign -1 there.

    For an int or Fraction s and an untwisted number-field character with a
    real exponent, x = a*s + b + Re(exponent) is exact, and a pole exactly
    when x = 0; where 0 < |x| is below float range, the value is infinite,
    with the sign of x.  Every other input (complex or float s, a function-field
    character, a complex exponent) is a pole when |1 - c q_k^(-x)| < 1e-14,
    which with a twist and a real x never holds.  Where q_k^(-x) overflows,
    x is far below 0 and the value q_k^x / (q_k^x - c) is tiny; where Re x
    is beyond float range, the value is 1.0 above 0 and 0 below.  Where only
    a coefficient is beyond float range, x is computed exactly first (see
    :func:`_argument`); an Im x beyond float range raises OverflowError."""
    if atom.kind == KIND_EPS:
        return 1.0  # unramified epsilon factors are 1
    chi = atom.character
    q_k = q ** chi.degree
    if (isinstance(s, (int, Fraction)) and chi.q is None and chi.exponent.im == 0
            and not chi.quad_twist):
        x = atom.arg.a * s + atom.arg.b + chi.exponent.re
        if x == 0:
            raise PoleAtEvaluation(f"Euler factor pole at s={s}")
        try:
            denom = -math.expm1(-float(x) * math.log(q_k))
        except OverflowError:
            if abs(x) > sys.float_info.max:  # |x| beyond float range
                return 1.0 if x > 0 else -0.0
            y = q_k ** float(x)
            return y / (y - 1.0)
        if denom == 0.0:  # 0 < |x| below float range: about 1 / (x log q_k)
            return math.inf if x > 0 else -math.inf
        return 1.0 / denom
    c = -1.0 if chi.quad_twist else 1.0
    x = _argument(atom, s)
    if math.isinf(x.real):  # Re x beyond float range
        return 1.0 if x.real > 0 else 0.0
    try:
        denom = 1.0 - c * q_k ** (-x)
    except OverflowError:
        y = q_k ** x
        return y / (y - c)
    if abs(denom) < 1e-14:
        raise PoleAtEvaluation(f"Euler factor pole at s={s}")
    return 1.0 / denom


def _argument(atom: LFactorAtom, s: complex) -> complex:
    """x = a*s + b + exponent at a float or complex s.  Where a coefficient is
    beyond float range, x is computed exactly from Fraction(s.real) and
    Fraction(s.imag) first: a Re x beyond float range comes back as an
    infinite real part, and an Im x beyond it raises OverflowError."""
    chi = atom.character
    try:
        return atom.arg(s) + chi.exponent.numeric(chi.q)
    except OverflowError:  # a coefficient beyond float range
        re = atom.arg.a * Fraction(s.real) + atom.arg.b + chi.exponent.re
    if abs(re) > sys.float_info.max:
        return complex(math.inf if re > 0 else -math.inf, 0.0)
    return complex(float(re), float(atom.arg.a * Fraction(s.imag))
                   + chi.exponent.numeric(chi.q).imag)


def evaluate_finite(product: MeromorphicProduct, q: int, s: complex) -> complex:
    val = complex(1.0)
    for atom, n in product:
        val *= local_euler_value(atom, q, s) ** n
    return val
