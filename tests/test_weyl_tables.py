"""The permutation tables through which W acts on the relative roots.

Closed forms (Humphreys, *Reflection Groups and Coxeter Groups*, 3.7 and
3.18) give the length n h / 2 of the longest element and the order of W
as the product of the degrees; they are written here, not read from the
program.  The tables themselves must be involutions on the root indices
that send exactly one positive root, the simple root, negative.  Finally
``inversion_set`` and ``_apply_word`` must agree with a reflection action
on coordinate vectors computed here from the relative Cartan matrix alone.
"""

import functools
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gkval import WeylElement, family_datum, restrict_roots, split_datum, su_datum

# family -> (least rank, Coxeter number h(n), degrees(n))
CLOSED_FORMS = {
    "A": (1, lambda n: n + 1, lambda n: range(2, n + 2)),
    "B": (2, lambda n: 2 * n, lambda n: range(2, 2 * n + 1, 2)),
    "C": (2, lambda n: 2 * n, lambda n: range(2, 2 * n + 1, 2)),
    "D": (4, lambda n: 2 * n - 2, lambda n: [*range(2, 2 * n - 1, 2), n]),
}
EXCEPTIONAL = {  # (family, rank) -> (h, degrees)
    ("E", 6): (12, (2, 5, 6, 8, 9, 12)),
    ("E", 7): (18, (2, 6, 8, 10, 12, 14, 18)),
    ("E", 8): (30, (2, 8, 12, 14, 18, 20, 24, 30)),
    ("F", 4): (12, (2, 6, 8, 12)),
    ("G", 2): (6, (2, 6)),
}


def _split_types():
    """(family, rank, h, degrees) of split A1-A12, B2-B12, C2-C12, D4-D12,
    E6-E8, F4 and G2."""
    out = []
    for family, (least, h, degrees) in CLOSED_FORMS.items():
        out += [(family, n, h(n), tuple(degrees(n))) for n in range(least, 13)]
    out += [(family, n, h, degrees) for (family, n), (h, degrees) in EXCEPTIONAL.items()]
    return out


SPLIT = _split_types()


def _table_data():
    out = []
    for d in (1, 2, 3):
        out += [family_datum("SU(n,n+1)", n, d) for n in range(2, 7)]
        out += [family_datum("SU(n,n)", n, d) for n in range(2, 7)]
        out += [family_datum("Spin2n-", n, d) for n in range(4, 7)]
        out += [family_datum("3D4", 4, d), family_datum("2E6", 6, d)]
    return out


DATA = _table_data() + [split_datum(family, n) for family, n, _, _ in SPLIT]


@functools.cache
def fold(datum):
    return restrict_roots(datum)


def test_longest_element_length_is_n_h_over_2():
    for family, n, h, _ in SPLIT:
        w0 = fold(split_datum(family, n)).longest_element()
        assert len(w0.word) == n * h // 2, f"{family}{n}"


def test_weyl_group_order_is_product_of_degrees():
    checked = 0
    for family, n, _, degrees in SPLIT:
        if math.prod(degrees) <= 4000:
            elements = fold(split_datum(family, n)).weyl_enumerate()
            assert len(elements) == math.prod(degrees), f"{family}{n}"
            checked += 1
    assert checked == 17  # A1-A5, B2-B5, C2-C5, D4, D5, F4, G2


def test_tables_are_involutions_sending_one_positive_root_negative():
    for datum in DATA:
        system = fold(datum)
        n = len(system.positive_roots)
        assert len(system.reflection_tables) == system.rank
        for j, table in enumerate(system.reflection_tables):
            assert len(table) == 2 * n
            assert all(table[table[x]] == x for x in range(-n, n)), (datum.label, j)
            assert [i for i in range(n) if table[i] < 0] == [j], (datum.label, j)
            assert system.positive_roots[j].coords == tuple(
                int(i == j) for i in range(system.rank))
            assert table[j] == ~j


def test_tables_do_not_depend_on_res_degree():
    assert (restrict_roots(su_datum(3, 3, 1)).reflection_tables
            is restrict_roots(su_datum(3, 3, 2)).reflection_tables)


def reflect(cartan, word, v):
    """w(v) for w = s_word[0] ... s_word[-1], rightmost letter first, with
    s_j(v) = v - <v, gamma_j^vee> gamma_j and <gamma_i, gamma_j^vee> = C[i][j]."""
    v = list(v)
    for j in reversed(word):
        v[j] -= sum(v[i] * cartan[i][j] for i in range(len(v)))
    return tuple(v)


@st.composite
def words_and_roots(draw):
    system = fold(draw(st.sampled_from(DATA)))
    word = draw(st.lists(st.integers(0, system.rank - 1), max_size=12))
    root = draw(st.sampled_from(system.positive_roots)).coords
    sign = draw(st.sampled_from((1, -1)))
    return system, word, tuple(sign * c for c in root)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(words_and_roots())
def test_tables_agree_with_the_vector_action(case):
    system, word, v = case
    assert system._apply_word(word, v) == reflect(system.cartan, word, v)
    expected = [r for r in system.positive_roots
                if all(c <= 0 for c in reflect(system.cartan, word, r.coords))]
    assert list(system.inversion_set(WeylElement(tuple(word)))) == expected
