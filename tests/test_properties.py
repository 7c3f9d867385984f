"""Property-based invariants of folding, Weyl words, coroot pairings and
the L-factor product algebra, and the CLI's JSON text of a product.

The systems are the table families of ``verify-all`` and split A-G up to
rank 6, each at res_degree 1, 2 and 3, plus cycled copies of the split
types and a few other disconnected diagrams, and drawn disjoint unions of
split types with shuffled nodes.  Products are built from the rank-one
factors ``r_alpha`` of SL2- and SU21-type roots at d_alpha = 1, 2, 3, over
number fields and function fields.  Hypothesis runs derandomized, so the
drawn words, unions and products are the same on every run.
"""

import functools
import importlib
import json
import math
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gkval import (
    FUNCTION_MODE,
    SL2,
    SU21,
    AffineForm,
    HeckeCharacterDescriptor,
    LFactorAtom,
    MeromorphicProduct,
    RationalComplex,
    GroupDatum,
    RelativeRoot,
    UnramifiedCharacter,
    WeylElement,
    cartan_matrix,
    constant_term,
    family_datum,
    local_scale,
    multiplicativity_check,
    poles_positive,
    quasi_split_e6_datum,
    r_alpha,
    restrict_roots,
    spin_minus_datum,
    split_datum,
    su_datum,
    triality_datum,
)
from gkval.roots import MAX_NODES
from test_golden import COMMANDS, _datum_spec, _run

cli = importlib.import_module("gkval.cli")


def positive_count(family, n):
    """|Phi+| of the absolute root system of type family_n."""
    return {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1),
            "E": {6: 36, 7: 63, 8: 120}.get(n), "F": 24, "G": 6}[family]


# every split type on at most 6 nodes
SPLIT = [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)]
SPLIT += [("C", r) for r in range(2, 7)] + [("D", r) for r in range(3, 7)]
SPLIT += [("E", 6), ("F", 4), ("G", 2)]


def _cases():
    """(datum, absolute family, absolute rank) for every system under test."""
    out = []
    for d in (1, 2, 3):
        out += [(split_datum(f, r, d), f, r) for f, r in SPLIT]
        out += [(family_datum("SU(n,n+1)", n, d), "A", 2 * n) for n in range(2, 7)]
        out += [(family_datum("SU(n,n)", n, d), "A", 2 * n - 1) for n in range(2, 7)]
        out += [(family_datum("Spin2n-", n, d), "D", n) for n in range(4, 7)]
        out += [(family_datum("3D4", 4, d), "D", 4), (family_datum("2E6", 6, d), "E", 6)]
    return out


CASES = _cases()


@functools.cache
def fold(datum):
    return restrict_roots(datum)


@st.composite
def systems_and_words(draw):
    system = fold(draw(st.sampled_from(CASES))[0])
    word = draw(st.lists(st.integers(0, system.rank - 1), max_size=14))
    return system, word


PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@PROPERTY
@given(systems_and_words())
def test_normal_form_length_is_inversion_count(case):
    system, word = case
    w = system.normalize(word)
    assert len(w.word) == len(system.inversion_set(w))


@PROPERTY
@given(systems_and_words())
def test_normalize_is_idempotent(case):
    system, word = case
    w = system.normalize(word)
    assert system.normalize(w.word) == w


def test_longest_element_inverts_every_positive_root():
    for datum, _, _ in CASES:
        system = fold(datum)
        w0 = system.longest_element()
        assert system.inversion_set(w0) == system.positive_roots, datum.label


def test_coroot_pairings_are_integers_matching_cartan():
    for datum, _, _ in CASES:
        system = fold(datum)
        dp = datum.res_degree
        for r in system.positive_roots:
            vec = system.coroot_pairing_vector(r)
            assert all(type(c) is int for c in vec), (datum.label, r.coords)
        for j, b in enumerate(system.simple_roots):
            vec = system.coroot_pairing_vector(b)
            assert vec == tuple(dp * system.cartan[i][j] for i in range(system.rank))


def test_orbit_sizes_sum_to_absolute_positive_count():
    for datum, family, rank in CASES:
        system = fold(datum)
        total = sum(len(r.orbit) for r in system.positive_roots)
        assert total == positive_count(family, rank), datum.label


def _pairings(system):
    return [system.coroot_pairing_vector(r) for r in system.positive_roots]


def test_res_degree_scales_only_d_alpha_and_pairings():
    """The system at d' = k is the system at d' = 1 with d_alpha and every
    coroot pairing multiplied by k, and nothing else changed."""
    for datum, _, _ in CASES:
        if datum.res_degree != 1:
            continue
        one = restrict_roots(datum)
        for k in (2, 3):
            scaled = restrict_roots(GroupDatum(datum.cartan, datum.automorphism,
                                               datum.automorphism_order, k, datum.label))
            assert scaled.positive_roots == tuple(
                RelativeRoot(r.index, r.coords, r.orbit, r.length_class, k * r.d_alpha,
                             r.rank_one_type, r.component) for r in one.positive_roots
            ), (datum.label, k)
            assert _pairings(scaled) == [
                tuple(k * c for c in vec) for vec in _pairings(one)
            ], (datum.label, k)
            assert (scaled.simple_orbits, scaled.gram, scaled.cartan, scaled.components,
                    scaled.has_divisible, scaled.principal_ray()) == (
                one.simple_orbits, one.gram, one.cartan, one.components,
                one.has_divisible, one.principal_ray()), (datum.label, k)


def block_diagonal(*blocks):
    """The Cartan matrix of the disjoint union of the given diagrams."""
    n = sum(map(len, blocks))
    out, at = [[0] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            out[at + i][at:at + len(row)] = row
        at += len(block)
    return tuple(map(tuple, out))


def _copies(cartan, k, res_degree):
    """k disjoint copies of a diagram, cycled by the automorphism."""
    n = len(cartan)
    return GroupDatum(block_diagonal(*[cartan] * k),
                      tuple((i + n) % (k * n) for i in range(k * n)), k, res_degree)


def _cli_json(tmp_path, datum, argv):
    """Exit code and stdout of a CLI command on the spec of ``datum``."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_datum_spec(datum)), encoding="utf-8")
    return _run(argv + ["--input", str(path), "--output-format", "json"])


def test_restriction_of_scalars_matches_res_degree(tmp_path):
    """Folding k cycled copies of split X at d' prints the JSON of X at k d'
    for every command: the same roots, length classes, rank-one types,
    degrees, pairings and poles."""
    mismatches = []
    for family, rank in SPLIT:
        cartan = cartan_matrix(family, rank)
        for k in (2, 3):
            if k * rank > MAX_NODES:
                continue
            for d in (1, 2):
                single = GroupDatum(tuple(map(tuple, cartan)), tuple(range(rank)), 1, k * d)
                for command, argv in COMMANDS.items():
                    out = _cli_json(tmp_path, single, argv)
                    assert out.startswith("exit 0\n"), (family, rank, k * d, command)
                    if _cli_json(tmp_path, _copies(cartan, k, d), argv) != out:
                        mismatches.append(f"{family}{rank} k={k} d'={d} {command}")
    assert mismatches == []


# The relative types of the quasi-split outer forms, from Tits, "Classification
# of algebraic semisimple groups" (1966): (family, datum at (n, d'), the n
# tested, the relative type at n and whether it has divisible roots).
BOREL_TITS = [
    ("SU(n,n+1)", lambda n, d: su_datum(n, n + 1, d), range(2, 7),
     lambda n: (f"B{n}", True)),  # BC_n
    ("SU(n,n)", lambda n, d: su_datum(n, n, d), range(2, 7),
     lambda n: ("B2" if n == 2 else f"C{n}", False)),
    ("Spin2n-", spin_minus_datum, range(4, 13), lambda n: (f"B{n - 1}", False)),
    ("3D4", lambda n, d: triality_datum(d), [4], lambda n: ("G2", False)),
    ("2E6", lambda n, d: quasi_split_e6_datum(d), [6], lambda n: ("F4", False)),
]


def test_relative_types_match_borel_tits(tmp_path):
    """classify prints each quasi-split family's relative type as Tits
    tabulates it, on one component over every relative node, at every d':
    restriction of scalars leaves the relative type alone."""
    mismatches = []
    for family, build, ns, expected in BOREL_TITS:
        for n in ns:
            relative_type, divisible = expected(n)
            want = {"components": [{"type": relative_type,
                                    "nodes": list(range(int(relative_type[1:])))}],
                    "has_divisible_roots": divisible}
            for d in (1, 2, 3):
                out = _cli_json(tmp_path, build(n, d), ["classify"])
                assert out.startswith("exit 0\n"), (family, n, d)
                got = json.loads(out.partition("\n")[2])
                if {key: got[key] for key in want} != want:
                    mismatches.append(f"{family} n={n} d'={d}")
    assert mismatches == []


def _symmetries(family, n, order):
    """The diagram automorphisms of family_n drawn at automorphism order
    ``order``: the identity, and the flips at order 2 or triality at 3."""
    flips, trialities = [], []
    if family == "A" and n > 1:
        flips = [tuple(reversed(range(n)))]
    elif family == "D":
        flips = [tuple(range(n - 2)) + (n - 1, n - 2)]
    elif (family, n) == ("E", 6):
        flips = [quasi_split_e6_datum().automorphism]
    if (family, n) == ("D", 4):
        trialities = [(2, 1, 3, 0), (3, 1, 0, 2)]
    return [tuple(range(n))] + {1: [], 2: flips, 3: trialities}[order]


COMPONENTS = SPLIT + [("E", 7), ("E", 8)]


@st.composite
def direct_sums(draw):
    """(datum, parts, shuffle): a disjoint union of split parts on at most
    MAX_NODES nodes.  A part is one component with one of its symmetries, or
    cycled copies of one component; node i of the parts laid end to end is
    node shuffle[i] of the datum.  Half the unions of order 3 hold a split G2
    beside a triality D4: a probe of this property found the once-per-diagram
    triality flip only when that pair was drawn often."""
    order = draw(st.sampled_from((1, 2, 3, 3)))
    parts = []
    if order == 3 and draw(st.booleans()):
        triality = draw(st.sampled_from(_symmetries("D", 4, 3)[1:]))
        parts = [GroupDatum(tuple(map(tuple, cartan_matrix("G", 2))), (0, 1), 3, 1),
                 GroupDatum(tuple(map(tuple, cartan_matrix("D", 4))), triality, 3, 1)]
    size = sum(len(part.cartan) for part in parts)
    while size < MAX_NODES and (not parts or draw(st.booleans())):
        room = MAX_NODES - size
        family, n = draw(st.sampled_from([c for c in COMPONENTS if c[1] <= room]))
        cartan = cartan_matrix(family, n)
        if order > 1 and order * n <= room and draw(st.booleans()):
            part = _copies(cartan, order, 1)
        else:
            sigma = draw(st.sampled_from(_symmetries(family, n, order)))
            part = GroupDatum(tuple(map(tuple, cartan)), sigma, order, 1)
        parts.append(part)
        size += len(part.cartan)
    perm = []
    for part in parts:
        perm += [len(perm) + x for x in part.automorphism]
    laid = block_diagonal(*(part.cartan for part in parts))
    shuffle = draw(st.permutations(range(size)))
    cartan = [[0] * size for _ in range(size)]
    sigma = [0] * size
    for i in range(size):
        sigma[shuffle[i]] = shuffle[perm[i]]
        for j in range(size):
            cartan[shuffle[i]][shuffle[j]] = laid[i][j]
    return GroupDatum(tuple(map(tuple, cartan)), tuple(sigma), order, 1), parts, shuffle


def _relabelled(datum, perm):
    """``datum`` with node i renamed perm[i], its automorphism conjugated."""
    n = len(datum.cartan)
    cartan, sigma = [[0] * n for _ in range(n)], [0] * n
    for i in range(n):
        sigma[perm[i]] = perm[datum.automorphism[i]]
        for j in range(n):
            cartan[perm[i]][perm[j]] = datum.cartan[i][j]
    return GroupDatum(tuple(map(tuple, cartan)), tuple(sigma), datum.automorphism_order,
                      datum.res_degree)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(direct_sums(), st.data())
def test_relabelling_the_nodes_changes_no_root_data_and_no_constant_term(case, data):
    """Renaming the nodes of a drawn union keeps the multiset of (length
    class, d_alpha, rank-one type) over the positive roots, and the constant
    term at w0 with the trivial character on the principal ray: the product
    is equal, atom by atom across two separate folds, and prints the same."""
    datum = case[0]
    perm = data.draw(st.permutations(range(len(datum.cartan))))
    if perm == sorted(perm):  # hypothesis draws the identity often
        perm.reverse()
    one, other = restrict_roots(datum), restrict_roots(_relabelled(datum, perm))

    def root_types(system):
        return sorted((r.length_class, r.d_alpha, r.rank_one_type)
                      for r in system.positive_roots)

    def w0_product(system):
        chi = UnramifiedCharacter.trivial(system.rank)
        return constant_term(system, chi, system.principal_ray(),
                             system.longest_element()).product

    assert root_types(other) == root_types(one)
    p, q = w0_product(one), w0_product(other)
    assert q == p and hash(q) == hash(p)
    assert json.dumps(q.to_json()) == json.dumps(p.to_json())


@settings(derandomize=True, max_examples=50, deadline=None)
@given(direct_sums(), st.data())
def test_relabelling_the_nodes_permutes_classify(case, data):
    """Renaming the nodes of a drawn union keeps classify's relative rank,
    divisible-root flag, root count, multiset of degree tables and multiset
    of simple-root (length class, d_alpha, rank-one type), and carries each
    component's node set, with its type, through the renaming: relative node
    k, the orbit O_k, goes to the relative node whose orbit is perm(O_k)."""
    datum = case[0]
    perm = data.draw(st.permutations(range(len(datum.cartan))))
    if perm == sorted(perm):  # hypothesis draws the identity often
        perm.reverse()
    renamed = _relabelled(datum, perm)
    with tempfile.TemporaryDirectory() as tmp:
        one, other = (json.loads(_cli_json(Path(tmp), d, ["classify"]).partition("\n")[2])
                      for d in (datum, renamed))

    def tables(p):
        table = p["degree_table"]
        return sorted(json.dumps(t, sort_keys=True)
                      for t in (table if isinstance(table, list) else [table]))

    def simple_types(p):
        return sorted((r["length_class"], r["d_alpha"], r["rank_one_type"])
                      for r in p["simple_roots"])

    for key in ("relative_rank", "has_divisible_roots", "positive_root_count"):
        assert other[key] == one[key], key
    assert tables(other) == tables(one)
    assert simple_types(other) == simple_types(one)
    node_of = {tuple(orbit): k for k, orbit in enumerate(fold(renamed).simple_orbits)}
    moved = [node_of[tuple(sorted(perm[i] for i in orbit))]
             for orbit in fold(datum).simple_orbits]

    def components(p, relabel):
        return sorted((c["type"], sorted(relabel[k] for k in c["nodes"]))
                      for c in p["components"])

    assert components(other, range(len(moved))) == components(one, moved)


def _component_summary(system, component, relabel):
    """The type of a relative component and, per root on it, its coordinates
    on the component's nodes k, written at relabel[k] -> (its norm over the
    least norm on the component, length class, d_alpha, rank-one type)."""
    kind, nodes = system.components[component]
    scale = math.lcm(*(x.denominator for row in system.gram for x in row))
    gram = [[int(x * scale) for x in row] for row in system.gram]
    rows = {}
    for r in system.positive_roots:
        if r.component != component:
            continue
        coords = [0] * len(nodes)
        for k in nodes:
            coords[relabel[k]] = r.coords[k]
        assert all(c == 0 for i, c in enumerate(r.coords) if i not in nodes), r
        norm = sum(r.coords[i] * r.coords[j] * gram[i][j] for i in nodes for j in nodes)
        rows[tuple(coords)] = (norm, r.length_class, r.d_alpha, r.rank_one_type)
    least = min(norm for norm, *_ in rows.values())
    return kind, {c: (Fraction(norm, least), *rest) for c, (norm, *rest) in rows.items()}


@settings(derandomize=True, max_examples=200, deadline=None)
@given(direct_sums())
def test_fold_of_a_direct_sum_is_the_fold_of_its_parts(case):
    """Each component of the fold of a disjoint union is the fold of its part
    alone, root by root, whatever the order of the nodes."""
    datum, parts, shuffle = case
    system = restrict_roots(datum)
    owner, at = {}, 0  # node of the datum -> (part, relative node of the part)
    for p, part in enumerate(parts):
        for k, orbit in enumerate(fold(part).simple_orbits):
            for node in orbit:
                owner[shuffle[at + node]] = (p, k)
        at += len(part.cartan)
    seen = []
    for ci, (_, nodes) in enumerate(system.components):
        where = [owner[system.simple_orbits[k][0]] for k in nodes]
        p = where[0][0]
        assert {q for q, _ in where} == {p}
        own = fold(parts[p])
        assert len(own.components) == 1
        relabel = {k: kp for k, (_, kp) in zip(nodes, where)}
        assert _component_summary(system, ci, relabel) == _component_summary(
            own, 0, range(own.rank)), parts[p]
        seen.append(p)
    assert sorted(seen) == list(range(len(parts)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(direct_sums(), st.data())
def test_cocycle_holds_on_random_length_additive_splits(case, data):
    """A reduced word cut anywhere is a length-additive split w = w1 w2, so
    r(w, lambda) = r(w1, w2 lambda) r(w2, lambda) on the fold of a drawn union."""
    system = restrict_roots(case[0])
    word = data.draw(st.lists(st.integers(0, system.rank - 1), max_size=24))
    w = system.normalize(word)
    assert len(system.inversion_set(w)) == len(w.word)
    cut = data.draw(st.integers(0, len(w.word)))
    w1, w2 = system.normalize(w.word[:cut]), system.normalize(w.word[cut:])
    assert multiplicativity_check(system, UnramifiedCharacter.trivial(system.rank),
                                  system.principal_ray(), w1, w2)


def test_principal_ray_pairs_to_local_scale():
    """sum_i x_i C[i][j] = local_scale(beta_j) / d' on every simple root, on
    the table systems and on disconnected diagrams that mix triality, flips,
    cycled copies and fixed components."""
    g2, d4 = cartan_matrix("G", 2), cartan_matrix("D", 4)
    a1, a2, a4 = (cartan_matrix("A", n) for n in (1, 2, 4))
    disconnected = [
        GroupDatum(block_diagonal(g2, d4), (0, 1, 4, 3, 5, 2), 3, 2),
        GroupDatum(block_diagonal(a1, a1, a1), (1, 0, 2), 2, 1),
        GroupDatum(block_diagonal(a2, a4), (1, 0, 5, 4, 3, 2), 2, 3),
        GroupDatum(block_diagonal(cartan_matrix("B", 3), a4), (0, 1, 2, 6, 5, 4, 3), 2, 1),
        _copies(a2, 3, 2),
        _copies(g2, 3, 1),
    ]
    for datum in [datum for datum, _, _ in CASES] + disconnected:
        system = fold(datum)
        x, c = system.principal_ray(), system.cartan
        for j, beta in enumerate(system.simple_roots):
            assert sum(x[i] * c[i][j] for i in range(system.rank)) == Fraction(
                local_scale(beta), datum.res_degree), (datum, j)


small_rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 4)))
PRODUCT_PROPERTY = settings(derandomize=True, max_examples=40, deadline=None)


@st.composite
def rank_one_factors(draw):
    """r_alpha for one SL2- or SU21-type root, with its character drawn."""
    d = draw(st.integers(1, 3))
    rank_one_type = draw(st.sampled_from((SL2, SU21)))
    if rank_one_type == SU21:
        label, degree = "E_alpha", 2 * d
    else:
        label, degree = ("F" if d == 1 else "F_alpha"), d
    q = draw(st.sampled_from((None, 2, 3, 4, 5, 8, 9)))  # None: a number field
    exponent = RationalComplex(draw(small_rationals), draw(small_rationals))
    eta = HeckeCharacterDescriptor(label, degree, exponent, draw(st.booleans()), q)
    x = AffineForm(draw(small_rationals), draw(small_rationals))
    return r_alpha(x, rank_one_type, eta)


@st.composite
def products(draw):
    """A product of rank-one factors raised to small integer powers."""
    parts = draw(st.lists(st.tuples(rank_one_factors(), st.integers(-2, 2)),
                          max_size=4))
    return MeromorphicProduct(
        (atom, k * n) for factor, k in parts for atom, n in factor
    )


@PRODUCT_PROPERTY
@given(products())
def test_product_json_round_trip_is_byte_stable(p):
    """Over number fields and function fields alike; only a function-field
    atom records its q.  The atoms read back are equal to p's and hash alike."""
    data = p.to_json()
    assert [("q" in d["character"]) for d in data] == [
        atom.character.q is not None for atom, _ in p]
    blob = json.dumps(data, sort_keys=True)
    back = MeromorphicProduct.from_json(json.loads(blob))
    assert back == p
    assert [(a, hash(a)) for a, _ in back] == [(a, hash(a)) for a, _ in p]
    assert json.dumps(back.to_json(), sort_keys=True) == blob


huge_rationals = small_rationals | st.sampled_from(
    [Fraction(10**400), Fraction(-10**400), Fraction(-3, 10**400)])


@st.composite
def drawn_products(draw):
    """Products of atoms drawn field by field: L and eps, over number fields
    and function fields, twisted or not, with rationals of up to 400 digits
    and exponents of both signs."""
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        eta = HeckeCharacterDescriptor(
            draw(st.sampled_from(("F", "F_alpha", "E_alpha", 'q"\\\u00e9'))),
            draw(st.integers(1, 4)), RationalComplex(draw(huge_rationals), draw(huge_rationals)),
            draw(st.booleans()), draw(st.sampled_from((None, 2, 9))))
        atom = LFactorAtom(draw(st.sampled_from(("L", "eps"))),
                           draw(st.sampled_from(("finite", "real", "complex"))),
                           AffineForm(draw(huge_rationals), draw(huge_rationals)), eta)
        pairs.append((atom, draw(st.integers(-3, 3))))
    return MeromorphicProduct(pairs)


@PRODUCT_PROPERTY
@given(products() | drawn_products())
@example(MeromorphicProduct())
def test_cli_writes_a_product_as_json_dumps_does(p):
    """At depths 1 to 4, the constant-term writer gives the slice of
    json.dumps(..., sort_keys=True, indent=2) that holds p.to_json() nested
    that deep."""
    for depth in range(1, 5):
        nested = p.to_json()
        for _ in range(depth):
            nested = [nested]
        text = json.dumps(nested, sort_keys=True, indent=2)
        head = "".join("[\n" + "  " * (k + 1) for k in range(depth))
        tail = "".join("\n" + "  " * k + "]" for k in reversed(range(depth)))
        assert text.startswith(head) and text.endswith(tail)
        out = []
        cli._product_pieces(p, out, "\n" + "  " * depth)
        assert "".join(out) == text[len(head):len(text) - len(tail)], depth


def _neighbours(atom):
    """Atoms built apart from the fields of ``atom``, every rational a new
    Fraction: one with the same fields, and one for each change of a single
    field.  A rational is moved by 1/2, or halved, which keeps an odd
    numerator; a function-field exponent moved by 1/2 may reduce back."""
    eta, z = atom.character, atom.character.exponent
    fields = dict(kind=atom.kind, place_kind=atom.place_kind, a=atom.arg.a, b=atom.arg.b,
                  label=eta.field_label, degree=eta.degree, re=z.re, im=z.im,
                  twist=eta.quad_twist, q=eta.q)
    changes = [{}, {"kind": {"L": "eps", "eps": "L"}[atom.kind]}, {"place_kind": "real"},
               {"label": eta.field_label + "'"}, {"degree": eta.degree + 1},
               {"twist": not eta.quad_twist}, {"q": None if eta.q else 3},
               {"q": 2 * (eta.q or 2)}]
    for name in ("a", "b", "re", "im"):
        changes += [{name: fields[name] + Fraction(1, 2)}, {name: fields[name] / 2}]
    for change in changes:
        f = {**fields, **change}
        yield LFactorAtom(f["kind"], f["place_kind"],
                          AffineForm(Fraction(f["a"]), Fraction(f["b"])),
                          HeckeCharacterDescriptor(f["label"], f["degree"],
                                                   RationalComplex(Fraction(f["re"]),
                                                                   Fraction(f["im"])),
                                                   f["twist"], f["q"]))


@PRODUCT_PROPERTY
@given(rank_one_factors(), rank_one_factors())
def test_atoms_are_equal_exactly_when_their_fields_are(p, q):
    """Atoms compare by a stored key; on atoms built apart that is the field
    comparison of a plain record, and equal atoms hash alike.  (Unequal
    atoms may share a hash: hash(-1) == hash(-2).)  An atom is never equal
    to a non-atom, and comparing with one does not raise."""
    atoms = [a for a, _ in p] + [a for a, _ in q]
    apart = [b for a in atoms for b in _neighbours(a)]
    for a in atoms:
        for b in apart:
            assert (a == b) == (a._values(a) == b._values(b))
            assert (a != b) == (a._values(a) != b._values(b))
            if a == b:
                assert hash(a) == hash(b)
        for other in (None, 1, a._key, a.arg, a.character, p, MeromorphicProduct([(a, 1)])):
            assert a != other and other != a


def _atom(arg, exponent=RationalComplex(), degree=1, q=None):
    eta = HeckeCharacterDescriptor("F" if degree == 1 else "F_alpha", degree, exponent, False, q)
    return LFactorAtom("L", "finite", arg, eta)


def test_atoms_of_equal_value_are_equal():
    """An int, a float and a Fraction of one value give one key, and a
    function-field exponent is reduced modulo 1/degree before the key is
    made; over a number field it is not."""
    s, quarter = AffineForm.of(1), RationalComplex(im=Fraction(1, 4))
    equal = [(_atom(AffineForm(1, 0)), _atom(s)), (_atom(AffineForm(1.0, 0.0)), _atom(s)),
             (_atom(AffineForm(0.5, -0.25)),
              _atom(AffineForm.of(Fraction(1, 2), Fraction(-1, 4))))]
    equal += [(_atom(s, RationalComplex(im=im), 2, 4), _atom(s, quarter, 2, 4))
              for im in (Fraction(3, 4), Fraction(-1, 4), Fraction(9, 4))]
    for a, b in equal:
        assert a == b and hash(a) == hash(b)
    assert _atom(s, RationalComplex(im=Fraction(3, 4)), 2) != _atom(s, quarter, 2)


@PRODUCT_PROPERTY
@given(st.lists(st.tuples(rank_one_factors(), st.integers(-2, 2)), max_size=4), st.data())
def test_product_does_not_depend_on_term_order_or_grouping(parts, data):
    """A product built from any permutation of its pairs, or merged from
    sub-products, is equal, hashes the same and serializes to the same bytes."""
    pairs = [(atom, k * n) for factor, k in parts for atom, n in factor]
    shuffled = data.draw(st.permutations(pairs))
    cuts = data.draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    p = MeromorphicProduct(pairs)
    groups = [[] for _ in range(4)]
    for pair, g in zip(shuffled, cuts):
        groups[g].append(pair)
    merged = MeromorphicProduct.prod(MeromorphicProduct(g) for g in groups)
    blob = json.dumps(p.to_json())
    for other in (MeromorphicProduct(shuffled), merged):
        assert other == p and hash(other) == hash(p)
        assert json.dumps(other.to_json()) == blob


def mul(p, q):
    return MeromorphicProduct.prod((p, q))


@PRODUCT_PROPERTY
@given(products(), products(), products())
def test_product_is_commutative_and_associative(p, q, r):
    assert mul(p, q) == mul(q, p)
    assert mul(mul(p, q), r) == mul(p, mul(q, r))


@PRODUCT_PROPERTY
@given(products())
def test_product_times_inverse_is_empty(p):
    assert mul(p, MeromorphicProduct((a, -n) for a, n in p)) == MeromorphicProduct()


@PRODUCT_PROPERTY
@given(systems_and_words(),
       st.lists(st.tuples(small_rationals, small_rationals), min_size=8, max_size=8))
def test_constant_term_product_is_fold_of_factors(case, exponents):
    system, word = case
    chi = UnramifiedCharacter(
        tuple(RationalComplex(re, im) for re, im in exponents[:system.rank])
    )
    report = constant_term(system, chi, system.principal_ray(), WeylElement(tuple(word)))
    folded = functools.reduce(mul, (f.product for f in report.factors), MeromorphicProduct())
    assert report.product == folded


CLOSED_FORM_SYSTEMS = [fold(d) for d in (su_datum(2, 3, 2), split_datum("B", 3),
                                         quasi_split_e6_datum(), su_datum(4, 5))]
wide_rationals = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


def _closed_form(system, chi, direction, base, alpha):
    """The pairing, the local argument and the terms of r_alpha as fields,
    from the coroot pairing vector by Fraction arithmetic: {(kind, a, b,
    label, degree, Re, Im, twist, q): exponent}."""
    vec = system.coroot_pairing_vector(alpha)
    a = sum(x * v for x, v in zip(direction, vec))
    b = sum(x * v for x, v in zip(base, vec)) if base is not None else Fraction(0)
    scale, d = local_scale(alpha), alpha.d_alpha
    re = sum(z.re * v for z, v in zip(chi.exponents, vec)) / scale
    im = sum(z.im * v for z, v in zip(chi.exponents, vec)) / scale
    label = "F" if d == 1 else "F_alpha"

    def quotient(k, label, degree, re, im, twist):
        if chi.q is not None:
            im %= Fraction(1, degree)
        eta = (label, degree, re, im, twist, chi.q)
        return {("L", a / k, b / k, *eta): 1, ("eps", a / k, b / k, *eta): -1,
                ("L", a / k, b / k + 1, *eta): -1}

    if alpha.rank_one_type == SL2:
        terms = quotient(d, label, d, re, im, False)
    else:
        terms = {**quotient(4 * d, "E_alpha", 2 * d, re, im, False),
                 **quotient(2 * d, label, d, 2 * re, 2 * im, True)}
    return (a, b), (a / scale, b / scale), terms


def _fields(atom):
    eta, arg = atom.character, atom.arg
    return (atom.kind, arg.a, arg.b, eta.field_label, eta.degree, eta.exponent.re,
            eta.exponent.im, eta.quad_twist, eta.q)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.sampled_from(CLOSED_FORM_SYSTEMS), st.data())
def test_factors_match_their_closed_form(system, data):
    """Each factor of constant_term at w0 on SU(2,3) d'=2, B3, 2E6 and SU(4,5)
    (SL2-type roots at d_alpha = 1, 2 and 4, SU21-type at 1 and 2) has the
    pairing, local argument and atoms of the closed form, over a number field
    and over function fields, with and without a base point."""
    n = system.rank
    q = data.draw(st.sampled_from((None, 2, 4, 8, 9)))
    exponents = tuple(RationalComplex(*data.draw(st.tuples(wide_rationals, wide_rationals)))
                      for _ in range(n))
    chi = (UnramifiedCharacter(exponents) if q is None
           else UnramifiedCharacter(exponents, FUNCTION_MODE, q))
    direction = tuple(data.draw(st.lists(wide_rationals, min_size=n, max_size=n)))
    base = data.draw(st.none() | st.tuples(*[wide_rationals] * n))
    report = constant_term(system, chi, direction, system.longest_element(), base)
    assert len(report.factors) == len(system.positive_roots)
    for f in report.factors:
        pairing, local, terms = _closed_form(system, chi, direction, base, f.root)
        assert (f.pairing.a, f.pairing.b) == pairing
        assert (f.local_argument.a, f.local_argument.b) == local
        assert {_fields(atom): k for atom, k in f.product} == terms


@st.composite
def crowded_products(draw):
    """Products of drawn atoms and their neighbours, which tie with them on
    every field but one, so that sorting reaches every field of the order."""
    atoms = [b for a, _ in draw(products() | drawn_products()) for b in _neighbours(a)]
    exponents = draw(st.lists(st.integers(-3, 3), min_size=len(atoms), max_size=len(atoms)))
    return MeromorphicProduct(zip(atoms, exponents))


@PRODUCT_PROPERTY
@given(crowded_products())
def test_products_and_poles_read_in_sort_key_order(p):
    """A product lists its atoms in LFactorAtom.sort_key order, and
    poles_positive sorts by location, unconditional first, then that order,
    as sorting with the Fraction-valued keys does."""
    atoms = [a for a, _ in p]
    assert atoms == sorted(atoms, key=LFactorAtom.sort_key)
    for include_conditional in (False, True):
        expected = []
        for atom, n in p:
            a, b = atom.arg.a, atom.arg.b
            if atom.kind != "L" or n <= 0 or a == 0 or (1 - b) / a <= 0:
                continue
            if atom.character.is_trivial:
                conditional = False
            elif include_conditional and atom.character.is_unitary:
                conditional = True
            else:
                continue
            expected.append(((1 - b) / a, conditional, atom.sort_key(), n))
        expected.sort()
        assert [(e.location, e.order, e.conditional)
                for e in poles_positive(p, include_conditional)] == [
            (loc, n, conditional) for loc, conditional, _, n in expected]
