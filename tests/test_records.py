"""The value classes compare, hash and print like the frozen dataclasses
they replaced: two records are equal exactly when they have the same class
and the same fields, a record hashes as its field tuple, and its repr is
``Name(field=value, ...)``, which the golden ``system`` keys pin.  Each
class is checked against a frozen dataclass with the same name and
fields.  Hypothesis runs derandomized, over small domains so that equal
fields are drawn often."""

import dataclasses
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from gkval import (
    SL2,
    SU21,
    AffineForm,
    GroupDatum,
    HeckeCharacterDescriptor,
    LFactorAtom,
    RationalComplex,
    RelativeRoot,
    WeylElement,
    r_alpha,
    split_datum,
    su_datum,
    triality_datum,
)
from gkval.lfactors import KIND_EPS

FIELDS = {
    AffineForm: ("a", "b"),
    RationalComplex: ("re", "im"),
    RelativeRoot: ("index", "coords", "orbit", "length_class", "d_alpha", "rank_one_type",
                   "component"),
    WeylElement: ("word",),
    GroupDatum: ("cartan", "automorphism", "automorphism_order", "res_degree", "label"),
}
REFERENCE = {cls: dataclasses.make_dataclass(cls.__name__, names, frozen=True)
             for cls, names in FIELDS.items()}

fractions = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
words = st.lists(st.integers(0, 2), max_size=3).map(tuple)
diagrams = [(d.cartan, d.automorphism, d.automorphism_order)
            for d in (split_datum("A", 2), su_datum(2, 2), triality_datum())]
VALUES = {
    AffineForm: st.tuples(fractions, fractions),
    RationalComplex: st.tuples(fractions, fractions),
    RelativeRoot: st.tuples(st.integers(0, 1), words, st.lists(words, max_size=2).map(tuple),
                            st.sampled_from(["long", "short"]), st.integers(1, 2),
                            st.sampled_from([SL2, SU21]), st.integers(0, 1)),
    WeylElement: st.tuples(words),
    GroupDatum: st.builds(lambda d, k, label: d + (k, label), st.sampled_from(diagrams),
                          st.integers(1, 2), st.sampled_from(["", "x"])),
}
records = st.sampled_from(list(FIELDS)).flatmap(
    lambda cls: VALUES[cls].map(lambda values: (cls, values)))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(records, records)
def test_records_behave_like_frozen_dataclasses(x, y):
    (cls_x, vx), (cls_y, vy) = x, y
    rx, ry = cls_x(*vx), cls_y(*vy)
    dx, dy = REFERENCE[cls_x](*vx), REFERENCE[cls_y](*vy)
    assert tuple(getattr(rx, name) for name in FIELDS[cls_x]) == vx
    assert (rx == ry) == (cls_x is cls_y and vx == vy) == (dx == dy)
    assert (rx != ry) == (not rx == ry)
    assert rx == cls_x(*vx)
    assert hash(rx) == hash(vx) == hash(dx)
    assert repr(rx) == repr(dx)


def test_equal_fields_of_another_class_are_not_equal():
    """Unlike tuples, records of two classes never compare equal, so they
    stay apart as dict keys even when their hashes agree."""
    form, scalar = AffineForm(Fraction(1), Fraction(0)), RationalComplex(Fraction(1), Fraction(0))
    assert hash(form) == hash(scalar)
    assert form != scalar and not form == scalar
    assert {form: "form"}.get(scalar) is None


def test_private_slots_are_not_fields():
    """An atom's stored key and hash, its private slots, are not among its
    fields and take no part in its repr; an atom that r_alpha filled from a
    shared key equals, hashes and prints like one built field by field."""
    eta = HeckeCharacterDescriptor("F", 1, RationalComplex(Fraction(1, 2), Fraction(0)))
    x = AffineForm(Fraction(1, 3), Fraction(0))
    built = [atom for atom, _ in r_alpha(x, SL2, eta) if atom.kind == KIND_EPS]
    fresh = LFactorAtom(KIND_EPS, x, eta)
    assert LFactorAtom._fields == ("kind", "arg", "character")
    assert built == [fresh] and hash(built[0]) == hash(fresh)
    assert repr(built[0]) == repr(fresh) == (
        f"LFactorAtom(kind='eps', arg={x!r}, character={eta!r})")
