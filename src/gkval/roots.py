"""Relative (restricted) root systems of quasi-split reductive groups.

An absolute Dynkin diagram together with a diagram automorphism of order
1, 2 or 3 is folded onto the fixed subspace of the automorphism.  The
reduced relative roots are kept (a divisible root ``2*beta`` is recorded
only through a flag and through the orbit attached to ``beta``).  Each
reduced relative root carries:

* ``d_alpha``   -- the degree over the ground field of the field of
  definition of its rank-one Levi subgroup,
* ``rank_one_type`` -- ``"SL2"`` for a restriction of scalars of SL(2),
  ``"SU21"`` for a quasi-split special unitary group in three variables,
* ``length_class``  -- ``"long"`` / ``"short"`` / ``"single"``.

Length classes follow the classification tables reproduced by
:func:`proposition_table`; for a triality fold (automorphism of order 3)
the tables record the orbit-of-three roots as *long*, which is the
opposite of the metric ordering induced by the projection, and we follow
the tables.

Weyl-group elements of the relative system are reduced words in the
simple reflections (0-based node indices in the order reported by
``RelativeRootSystem.simple_roots``).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence


class RootSystemError(ValueError):
    """Invalid diagram, automorphism or Weyl datum."""


MAX_NODES = 12

SL2 = "SL2"
SU21 = "SU21"


# ---------------------------------------------------------------------------
# absolute diagrams


def cartan_matrix(family: str, rank: int) -> list[list[int]]:
    """Cartan matrix A[i][j] = <alpha_i, alpha_j^vee> in Bourbaki ordering."""
    n = rank
    limits = {"A": 1, "B": 2, "C": 2, "D": 3, "E": 6, "F": 4, "G": 2}
    if family not in limits:
        raise RootSystemError(f"unknown family {family!r}")
    if n < limits[family]:
        raise RootSystemError(f"{family}{n}: rank too small")
    if family in "EFG" and (family, n) not in {
        ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
    }:
        raise RootSystemError(f"{family}{n}: no such diagram")
    if n > MAX_NODES:
        raise RootSystemError(f"{family}{n}: more than {MAX_NODES} nodes")

    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def single(i: int, j: int) -> None:
        a[i][j] = a[j][i] = -1

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            single(i, i + 1)
        if family == "B" and n >= 2:
            a[n - 2][n - 1] = -2   # alpha_{n} short
            a[n - 1][n - 2] = -1
        if family == "C" and n >= 2:
            a[n - 2][n - 1] = -1   # alpha_{n} long
            a[n - 1][n - 2] = -2
    elif family == "D":
        for i in range(n - 3):
            single(i, i + 1)
        single(n - 3, n - 2)
        single(n - 3, n - 1)
    elif family == "E":
        chain = [0] + list(range(2, n))
        for i, j in zip(chain, chain[1:]):
            single(i, j)
        single(1, 3)
    elif family == "F":
        single(0, 1)
        single(2, 3)
        a[1][2] = -2
        a[2][1] = -1
    else:  # G2
        a[0][1] = -1
        a[1][0] = -3
    return a


def _validate_cartan(a: Sequence[Sequence[int]]) -> None:
    n = len(a)
    if n == 0 or n > MAX_NODES:
        raise RootSystemError("diagram must have between 1 and 12 nodes")
    for i in range(n):
        if len(a[i]) != n or a[i][i] != 2:
            raise RootSystemError("malformed Cartan matrix")
        for j in range(n):
            if i != j:
                if a[i][j] > 0 or (a[i][j] == 0) != (a[j][i] == 0):
                    raise RootSystemError("malformed Cartan matrix")
    # positive definiteness of the symmetrized matrix
    d = _symmetrizer(a)
    g = [[d[i] * a[j][i] for j in range(n)] for i in range(n)]
    m = [row[:] for row in g]
    for k in range(n):
        piv = m[k][k]
        if piv <= 0:
            raise RootSystemError("Cartan matrix is not of finite type")
        for i in range(k + 1, n):
            f = Fraction(m[i][k], 1) / piv
            m[i] = [mi - f * mk for mi, mk in zip(m[i], m[k])]


def _symmetrizer(a: Sequence[Sequence[int]]) -> list[Fraction]:
    """d with d_i * a[j][i] symmetric; (alpha_i, alpha_i) = 2 d_i."""
    n = len(a)
    d: list[Fraction | None] = [None] * n
    for start in range(n):
        if d[start] is not None:
            continue
        d[start] = Fraction(1)
        queue = [start]
        while queue:
            i = queue.pop()
            for j in range(n):
                if i != j and a[i][j] != 0 and d[j] is None:
                    # d_j a_ij = d_i a_ji
                    d[j] = d[i] * a[j][i] / a[i][j]
                    queue.append(j)
    return [x if x is not None else Fraction(1) for x in d]


def _generate_roots(a: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """All roots as integer vectors in the simple-root basis."""
    n = len(a)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for v in frontier:
            for j in range(n):
                pairing = sum(v[i] * a[i][j] for i in range(n))
                w = list(v)
                w[j] -= pairing
                tw = tuple(w)
                if tw not in seen:
                    seen.add(tw)
                    nxt.append(tw)
        frontier = nxt
    return sorted(seen)


# ---------------------------------------------------------------------------
# group datum


@dataclass(frozen=True)
class GroupDatum:
    """Absolute diagram, folding automorphism and scalar-restriction degree.

    ``res_degree`` is the degree d' of the field over which the absolute
    datum lives, relative to the ground field (restriction of scalars).
    """

    cartan: tuple[tuple[int, ...], ...]
    automorphism: tuple[int, ...]
    automorphism_order: int
    res_degree: int
    label: str = ""

    def __post_init__(self) -> None:
        _validate_cartan(self.cartan)
        n = len(self.cartan)
        perm = self.automorphism
        if sorted(perm) != list(range(n)):
            raise RootSystemError("automorphism is not a permutation of the nodes")
        for i in range(n):
            for j in range(n):
                if self.cartan[perm[i]][perm[j]] != self.cartan[i][j]:
                    raise RootSystemError("automorphism does not preserve the diagram")
        if self.automorphism_order not in (1, 2, 3):
            raise RootSystemError("automorphism order must be 1, 2 or 3")
        p = list(range(n))
        for _ in range(self.automorphism_order):
            p = [perm[i] for i in p]
        if p != list(range(n)):
            raise RootSystemError("permutation order does not divide the declared order")
        if self.res_degree < 1:
            raise RootSystemError("res_degree must be a positive integer")


def datum_from_type(
    family: str,
    rank: int,
    automorphism: Sequence[int] | None = None,
    automorphism_order: int = 1,
    res_degree: int = 1,
    label: str = "",
) -> GroupDatum:
    a = cartan_matrix(family, rank)
    perm = tuple(automorphism) if automorphism is not None else tuple(range(rank))
    return GroupDatum(
        cartan=tuple(tuple(row) for row in a),
        automorphism=perm,
        automorphism_order=automorphism_order,
        res_degree=res_degree,
        label=label or f"{family}{rank}",
    )


def split_datum(family: str, rank: int, res_degree: int = 1) -> GroupDatum:
    return datum_from_type(family, rank, res_degree=res_degree,
                           label=f"split-{family}{rank}")


def su_datum(p: int, q: int, res_degree: int = 1) -> GroupDatum:
    """Quasi-split special unitary group SU(p, q) with |p - q| <= 1."""
    if not (abs(p - q) <= 1 and p + q >= 3):
        raise RootSystemError("need |p - q| <= 1 and p + q >= 3")
    n = p + q - 1  # A_n folded by the flip
    perm = tuple(n - 1 - i for i in range(n))
    return datum_from_type("A", n, perm, 2, res_degree, label=f"2A{n}")


def spin_minus_datum(n: int, res_degree: int = 1) -> GroupDatum:
    """Quasi-split outer form of Spin(2n) (folding of D_n)."""
    if n < 4:
        raise RootSystemError("D_n folding implemented for n >= 4")
    perm = list(range(n))
    perm[n - 2], perm[n - 1] = perm[n - 1], perm[n - 2]
    return datum_from_type("D", n, tuple(perm), 2, res_degree, label=f"2D{n}")


def triality_datum(res_degree: int = 1) -> GroupDatum:
    """Triality form of D4."""
    # D4 nodes: 0 - 1 - {2, 3}; outer nodes 0, 2, 3 are cycled.
    return datum_from_type("D", 4, (2, 1, 3, 0), 3, res_degree, label="3D4")


def quasi_split_e6_datum(res_degree: int = 1) -> GroupDatum:
    perm = (5, 1, 4, 3, 2, 0)
    return datum_from_type("E", 6, perm, 2, res_degree, label="2E6")


# ---------------------------------------------------------------------------
# relative roots


@dataclass(frozen=True)
class RelativeRoot:
    index: int
    coords: tuple[int, ...]  # in the basis of relative simple roots
    orbit: tuple[tuple[int, ...], ...]  # absolute roots over beta and 2*beta
    length_class: str
    d_alpha: int
    rank_one_type: str
    norm2: Fraction
    abs_norm2: Fraction  # squared length of the absolute roots over beta
    component: int
    positive: bool = True


def local_scale(alpha: RelativeRoot) -> int:
    """The pole scale of alpha: d_alpha for SL2-type, 4 d_alpha for SU21-type.

    It is the pairing value at which the rank-one factor of alpha has its
    pole (trivial character), the denominator turning the pairing into the
    rank-one local variable, and the pairing of the principal ray with a
    simple coroot.
    """
    return alpha.d_alpha if alpha.rank_one_type == SL2 else 4 * alpha.d_alpha


class RelativeRootSystem:
    """Reduced relative root system produced by :func:`restrict_roots`.

    d' enters only through d_alpha and the coroot pairings, which it
    multiplies, so the d'-free fold is computed once per diagram.
    """

    def __init__(self, datum: GroupDatum) -> None:
        (orbits, roots, pairings, self.cartan, self.gram, self.components,
         self.has_divisible) = _fold(tuple(map(tuple, datum.cartan)),
                                     tuple(datum.automorphism))
        d = datum.res_degree
        self.datum = datum
        self.simple_orbits = [list(o) for o in orbits]
        self.positive_roots = tuple(replace(r, d_alpha=d * r.d_alpha) for r in roots)
        self.rank = len(self.cartan)
        self._by_coords = {r.coords: r for r in self.positive_roots}
        self._pairings = {r.coords: tuple(d * c for c in vec)
                          for r, vec in zip(roots, pairings)}
        # (key, table) of the rank-one factors last assembled on this system;
        # kept by constant_term, which replaces it when the key changes
        self.factor_cache: tuple | None = None

    # -- basic queries ----------------------------------------------------

    @property
    def simple_roots(self) -> tuple[RelativeRoot, ...]:
        return self.positive_roots[: self.rank]

    def root_by_coords(self, coords: Sequence[int]) -> RelativeRoot:
        key = tuple(coords)
        try:
            return self._by_coords[key]
        except KeyError:
            raise RootSystemError(f"{key} is not a positive reduced root") from None

    def coroot_pairing_vector(self, alpha: RelativeRoot) -> tuple[int, ...]:
        """Integer coefficients c_i with <lambda, alpha^vee> = sum c_i lambda_i.

        c_i = d' <gamma_i, beta^vee> = d' * 2 (gamma_i, beta) / (beta, beta),
        so on a simple root beta_j it is d' * C[i][j].  The fold builds them at
        d' = 1, once per diagram.  Along the principal ray the pairing with a
        simple coroot is :func:`local_scale` times s.
        """
        return self._pairings[alpha.coords]

    def principal_ray(self) -> tuple[Fraction, ...]:
        """Direction x with <x, beta_j^vee> = local_scale(beta_j) on every
        relative simple root, i.e. sum_i x_i C[i][j] = local_scale(beta_j) / d'."""
        n = self.rank
        return _solve(
            [[self.cartan[i][j] for i in range(n)] for j in range(n)],
            [Fraction(local_scale(b), self.datum.res_degree)
             for b in self.simple_roots],
        )

    # -- Weyl combinatorics ----------------------------------------------

    def _apply_word(self, word: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
        cur = list(v)
        for j in reversed(list(word)):
            pairing = sum(cur[i] * self.cartan[i][j] for i in range(self.rank))
            cur[j] -= pairing
        return tuple(cur)

    def inversion_set(self, w: "WeylElement") -> tuple[RelativeRoot, ...]:
        """Positive reduced roots sent to negative roots by w."""
        out = []
        for r in self.positive_roots:
            img = self._apply_word(w.word, r.coords)
            if all(c <= 0 for c in img):
                out.append(r)
        return tuple(out)

    def length(self, w: "WeylElement") -> int:
        return len(self.inversion_set(w))

    def normalize(self, word: Sequence[int]) -> "WeylElement":
        """Lexicographically least reduced word, by descent stripping."""
        for j in word:
            if not 0 <= j < self.rank:
                raise RootSystemError(f"reflection index {j} out of range")
        n = self.rank
        # columns w^{-1}(gamma_j) of w^{-1}
        inv_cols = [
            list(self._apply_word(list(reversed(list(word))),
                                  [int(i == j) for i in range(n)]))
            for j in range(n)
        ]
        result: list[int] = []
        while True:
            descent = next(
                (j for j in range(n) if all(c <= 0 for c in inv_cols[j])), None
            )
            if descent is None:
                break
            result.append(descent)
            # w <- s_d w, so w^{-1}(gamma_j) <- w^{-1}(s_d gamma_j)
            #                               = w^{-1}(gamma_j - C[j][d] gamma_d)
            col_d = inv_cols[descent][:]
            for j, col in enumerate(inv_cols):
                c = self.cartan[j][descent]
                if c:
                    for i in range(n):
                        col[i] -= c * col_d[i]
        return WeylElement(tuple(result))

    def multiply(self, w1: "WeylElement", w2: "WeylElement") -> "WeylElement":
        return self.normalize(tuple(w1.word) + tuple(w2.word))

    def longest_element(self) -> "WeylElement":
        word: list[int] = []
        while True:
            asc = next(
                (
                    j
                    for j in range(self.rank)
                    if not all(
                        c <= 0
                        for c in self._apply_word(
                            word, [int(i == j) for i in range(self.rank)]
                        )
                    )
                ),
                None,
            )
            if asc is None:
                break
            word.append(asc)
        return self.normalize(word)

    def weyl_enumerate(self, limit: int = 4000) -> list["WeylElement"]:
        seen = {(): WeylElement(())}
        frontier = [()]
        while frontier:
            nxt = []
            for wd in frontier:
                for j in range(self.rank):
                    w = self.normalize(wd + (j,))
                    if w.word not in seen:
                        seen[w.word] = w
                        nxt.append(w.word)
                        if len(seen) > limit:
                            raise RootSystemError("Weyl group too large to enumerate")
            frontier = nxt
        return sorted(seen.values(), key=lambda w: (len(w.word), w.word))


@dataclass(frozen=True)
class WeylElement:
    """A Weyl-group element as a (not necessarily reduced) word."""

    word: tuple[int, ...]


# ---------------------------------------------------------------------------
# folding


def _solve(mat: list[list[Fraction]], rhs: list[Fraction]) -> tuple[Fraction, ...]:
    n = len(mat)
    m = [[Fraction(mat[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [x / pv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][n] for i in range(n))


def _form(g: Sequence[Sequence[Fraction]], u: Sequence[int],
          v: Sequence[int]) -> Fraction:
    """sum_ij u_i g_ij v_j for integer coordinate vectors u and v."""
    return sum(
        (u[i] * g[i][j] * v[j]
         for i in range(len(u)) if u[i]
         for j in range(len(v)) if v[j]),
        Fraction(0),
    )


def restrict_roots(datum: GroupDatum) -> RelativeRootSystem:
    """Fold the absolute system of ``datum`` to its relative reduced system.

    The relative simple roots are the images of the simple orbits of the
    automorphism, and the relative coordinate of an absolute root on an
    orbit is the sum of its coefficients over that orbit (Steinberg,
    *Lectures on Chevalley Groups*, section 11), so roots fold in integers.
    An image is reduced unless all its coordinates are even and half of it
    is an image too.  The relative simple root gamma_k is the average of its
    orbit O_k, so (gamma_k, gamma_l) is the sum of (alpha_i, alpha_j) over
    i in O_k, j in O_l, divided by |O_k| |O_l|.
    """
    return RelativeRootSystem(datum)


@functools.lru_cache(maxsize=64)
def _fold(a: tuple[tuple[int, ...], ...], perm: tuple[int, ...]) -> tuple:
    """The fold of :func:`restrict_roots` at d' = 1, as immutable values:
    simple orbits, positive roots, coroot pairing vectors, relative Cartan
    and Gram matrices, components and the divisibility flag."""
    n = len(a)
    d = _symmetrizer(a)
    gram_abs = [[d[i] * a[j][i] for j in range(n)] for i in range(n)]

    # relative simple roots: the simple orbits, in order of their least node
    simple_orbits: list[tuple[int, ...]] = []
    orbit_of = [-1] * n
    for i in range(n):
        if orbit_of[i] >= 0:
            continue
        orbit = [i]
        j = perm[i]
        while j != i:
            orbit.append(j)
            j = perm[j]
        for j in orbit:
            orbit_of[j] = len(simple_orbits)
        simple_orbits.append(tuple(sorted(orbit)))
    rel_rank = len(simple_orbits)

    images: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for r in _generate_roots(a):
        if all(c >= 0 for c in r):
            v = [0] * rel_rank
            for i, c in enumerate(r):
                v[orbit_of[i]] += c
            images.setdefault(tuple(v), []).append(r)
    reduced = [
        v for v in images
        if any(c % 2 for c in v) or tuple(c // 2 for c in v) not in images
    ]
    has_divisible = len(reduced) != len(images)

    gram_rel = tuple(
        tuple(
            sum(gram_abs[i][j] for i in ok for j in ol) / (len(ok) * len(ol))
            for ol in simple_orbits
        )
        for ok in simple_orbits
    )
    cartan_rel = [
        [2 * gram_rel[i][j] / gram_rel[j][j] for j in range(rel_rank)]
        for i in range(rel_rank)
    ]
    if any(x.denominator != 1 for row in cartan_rel for x in row):
        raise RootSystemError("internal: relative Cartan matrix is not integral")
    cartan_rel_int = tuple(tuple(int(x) for x in row) for row in cartan_rel)

    # component structure of the relative diagram
    comp_of_node = [-1] * rel_rank
    comps: list[list[int]] = []
    for i in range(rel_rank):
        if comp_of_node[i] >= 0:
            continue
        stack, nodes = [i], []
        comp_of_node[i] = len(comps)
        while stack:
            k = stack.pop()
            nodes.append(k)
            for j in range(rel_rank):
                if cartan_rel_int[k][j] != 0 and comp_of_node[j] < 0:
                    comp_of_node[j] = len(comps)
                    stack.append(j)
        comps.append(sorted(nodes))

    # order: simples first (orbit order), then by height and coordinates
    reduced.sort(key=lambda v: (0, v.index(1)) if sum(v) == 1 else (1, sum(v), v))
    norm2 = {v: _form(gram_rel, v, v) for v in reduced}
    component = {v: comp_of_node[next(i for i, c in enumerate(v) if c)]
                 for v in reduced}

    # length classes per component; a triality fold records the orbit-of-three
    # roots as long, matching the classification tables.
    has_triality = any(len(o) == 3 for o in simple_orbits)
    comp_norms = [
        sorted({norm2[v] for v in reduced if component[v] == ci})
        for ci in range(len(comps))
    ]

    def length_class(v: tuple[int, ...]) -> str:
        norms = comp_norms[component[v]]
        if len(norms) == 1:
            return "single"
        small = norm2[v] == norms[0]
        if has_triality and norms[-1] / norms[0] == 3:
            small = not small
        return "short" if small else "long"

    # rank-one data per reduced root
    rel_roots = []
    for index, v in enumerate(reduced):
        over = images[v]
        over_double = images.get(tuple(2 * c for c in v), [])
        orbit_roots = over + over_double
        # connected components of the orbit under non-orthogonality
        k = len(orbit_roots)
        comp_id = list(range(k))

        def find(x: int) -> int:
            while comp_id[x] != x:
                comp_id[x] = comp_id[comp_id[x]]
                x = comp_id[x]
            return x

        for x, y in itertools.combinations(range(k), 2):
            if _form(gram_abs, orbit_roots[x], orbit_roots[y]) != 0:
                comp_id[find(x)] = find(y)
        ncomp = len({find(x) for x in range(k)})
        if over_double and k != 3 * ncomp:
            raise RootSystemError("internal: unexpected unitary orbit shape")
        rel_roots.append(
            RelativeRoot(
                index=index,
                coords=v,
                orbit=tuple(sorted(over) + sorted(over_double)),
                length_class=length_class(v),
                d_alpha=ncomp,
                rank_one_type=SU21 if over_double else SL2,
                norm2=norm2[v],
                abs_norm2=_form(gram_abs, over[0], over[0]),
                component=component[v],
            )
        )

    # <gamma_i, beta^vee> = 2 (gamma_i, beta) / (beta, beta)
    pairings = []
    for v in reduced:
        vec = [2 * sum(g * b for g, b in zip(row, v)) / norm2[v] for row in gram_rel]
        if any(c.denominator != 1 for c in vec):
            raise RootSystemError("internal: non-integral coroot pairing")
        pairings.append(tuple(int(c) for c in vec))

    components = tuple(
        (_component_type(cartan_rel_int, gram_rel, nodes), tuple(nodes))
        for nodes in comps
    )
    return (tuple(simple_orbits), tuple(rel_roots), tuple(pairings),
            cartan_rel_int, gram_rel, components, has_divisible)


def _component_type(
    cartan: Sequence[Sequence[int]], gram: Sequence[Sequence], nodes: Sequence[int]
) -> str:
    """Classify an irreducible relative diagram ('B2' stands for B2 = C2)."""
    k = len(nodes)
    bonds = [
        (i, j, cartan[i][j] * cartan[j][i])
        for i, j in itertools.combinations(nodes, 2)
        if cartan[i][j] != 0
    ]
    if any(b == 3 for *_, b in bonds):
        return f"G{k}"
    if any(b == 2 for *_, b in bonds):
        if k == 2:
            return "B2"
        norms = [gram[i][i] for i in nodes]
        top = max(norms)
        nlong = sum(1 for x in norms if x == top)
        if nlong == 2 and k == 4 and sum(1 for x in norms if x != top) == 2:
            return "F4"
        return f"C{k}" if nlong == 1 else f"B{k}"
    # simply laced: look at the branch node, if any
    degree = {i: 0 for i in nodes}
    for i, j, _ in bonds:
        degree[i] += 1
        degree[j] += 1
    branch = [i for i in nodes if degree[i] == 3]
    if not branch:
        return f"A{k}"
    arms = sorted(_arm_lengths(bonds, branch[0], nodes))
    if arms[:2] == [1, 1]:
        return f"D{k}"
    return f"E{k}"


def _arm_lengths(bonds: list, branch: int, nodes: Sequence[int]) -> list[int]:
    adj: dict[int, list[int]] = {i: [] for i in nodes}
    for i, j, _ in bonds:
        adj[i].append(j)
        adj[j].append(i)
    arms = []
    for start in adj[branch]:
        length, prev, cur = 1, branch, start
        while True:
            ahead = [x for x in adj[cur] if x != prev]
            if not ahead:
                break
            prev, cur = cur, ahead[0]
            length += 1
        arms.append(length)
    return arms


# ---------------------------------------------------------------------------
# classification tables


# family -> (least n, degrees per length class in units of d', folded datum
# builder taking (n, d')); the split family has no single folded datum.
_FAMILY_TABLE = {
    "split": (0, {"all": 1}, None),
    "SU(n,n+1)": (2, {"long": 2, "short": 1}, lambda n, d: su_datum(n, n + 1, d)),
    "SU(n,n)": (2, {"short": 2, "long": 1}, lambda n, d: su_datum(n, n, d)),
    "Spin2n-": (4, {"short": 2, "long": 1}, spin_minus_datum),
    "3D4": (0, {"long": 3, "short": 1}, lambda n, d: triality_datum(d)),
    "2E6": (0, {"short": 2, "long": 1}, lambda n, d: quasi_split_e6_datum(d)),
}

# family -> least n
FAMILIES = {family: least for family, (least, _, _) in _FAMILY_TABLE.items()}


def proposition_table(family: str, n: int = 0, d_prime: int = 1) -> dict[str, int]:
    """Degrees d_alpha per length class for the standard quasi-split families.

    n is only checked against the family's least n; no row depends on it."""
    if d_prime < 1:
        raise RootSystemError("d_prime must be positive")
    if family not in _FAMILY_TABLE:
        raise RootSystemError(f"unknown family {family!r}")
    least, row, _ = _FAMILY_TABLE[family]
    if n < least:
        raise RootSystemError(f"{family} table needs n >= {least}")
    return {length: units * d_prime for length, units in row.items()}


def family_datum(family: str, n: int = 0, d_prime: int = 1) -> GroupDatum:
    """The group datum whose folding realizes a table family."""
    build = _FAMILY_TABLE.get(family, (0, {}, None))[2]
    if build is None:
        raise RootSystemError(f"no folded datum for family {family!r}")
    return build(n, d_prime)


def by_length_class(roots: Sequence[RelativeRoot], value, what: str) -> dict:
    """Length class ("all" for single) -> value(r), which must be the same
    for every root r of the class; ``what`` names the values in the error."""
    out: dict[str, set] = {}
    for r in roots:
        key = "all" if r.length_class == "single" else r.length_class
        out.setdefault(key, set()).add(value(r))
    bad = {k: v for k, v in out.items() if len(v) != 1}
    if bad:
        raise RootSystemError(f"inhomogeneous {what} within a length class: {bad}")
    return {k: v.pop() for k, v in out.items()}


def derived_table(system: RelativeRootSystem) -> dict[str, int]:
    """Length class -> d_alpha, read off the computed relative roots."""
    return by_length_class(system.positive_roots, lambda r: r.d_alpha, "degrees")
