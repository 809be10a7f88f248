"""Level-bounded dominant weights, center quotients and their orbits.

A weight set belongs to a product of simply connected factors, each with
its own level; a simple group is the one-factor case.  A weight is stored
as one flat tuple of marks (coefficients in the fundamental-weight basis),
the factors' marks in turn.  ``enumerate_product_weights`` lists the
tuples with (lambda | theta) <= l in every factor, in lexicographic order,
for the ``weights`` command and the tests; the exact pass
(``formula._terms``) walks them without storing them (``_mark_bounds``).

One table, ``_ACTS_ON``, states which factors each order-2 center subgroup
acts on.  ``restrict_to_quotient`` keeps the weights whose character is
trivial on the subgroup (a parity test on a few marks of each factor), and
``orbit_decompose`` the least member of each orbit (``_orbit_size``) under
the involution that on every factor swaps the affine mark n_0 and n_1
(:func:`center_act_marks`), for the ``weights`` command and the tests.

A second table, ``_LEAST_MEMBERS``, gives the rule per family by which the
exact pass visits one weight per center orbit, under every center spec.

Types B and D also carry the coordinate view used throughout: writing
lambda + rho = sum u_i e_i, the u_i form a strictly decreasing sequence of
half-integers, and membership in the quotient sublattice becomes an
integrality condition on the u_i.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from .rootsys import (
    RootSystem,
    Vector,
    marks,
    vec_add,
    weight_from_marks,
)

Marks = Tuple[int, ...]
Factor = Tuple[RootSystem, int]


class CenterSpec(Enum):
    """Supported order-<=2 center subgroups, named by the quotient group."""

    TRIVIAL = "trivial"
    SO_EVEN = "so-even"  # kernel of Spin(2s) -> SO(2s), type D
    SO_ODD = "so-odd"  # kernel of Spin(2s+1) -> SO(2s+1), type B
    SO3 = "so3"  # kernel of SL(2) -> SO(3), type A1 at even level
    SO4_DIAGONAL = "so4-diagonal"  # (-I, -I) in SL(2) x SL(2)


# The factors each non-trivial center subgroup acts on, by family, or by
# family and rank.
_ACTS_ON = {
    CenterSpec.SO_EVEN: ("D",),
    CenterSpec.SO_ODD: ("B",),
    CenterSpec.SO3: ("A1",),
    CenterSpec.SO4_DIAGONAL: ("A1", "A1"),
}


class LevelWeightSet(NamedTuple):
    """The dominant weights of a product of ``factors``, pairs
    ``(rs, level)``, each factor's weight at level <= its own, in canonical
    order; a simple group is one factor.

    A weight is stored as one flat mark tuple, the factors' marks in turn.
    ``weight`` turns marks into a vector (a tuple of vectors, one per
    factor, for a product), and ``weights`` is the vector view of the whole
    set, built at each read.  ``len`` counts the weights.
    """

    factors: Tuple[Factor, ...]
    marks: Tuple[Marks, ...]

    @property
    def k(self) -> int:
        """The shifted level l + h appearing in all denominators (one factor)."""
        ((rs, level),) = self.factors
        return level + rs.dual_coxeter

    def weight(self, n: Marks):
        vectors = tuple(weight_from_marks(rs, p) for rs, _, p in _parts(self.factors, n))
        return vectors[0] if len(vectors) == 1 else vectors

    @property
    def weights(self) -> tuple:
        return tuple(map(self.weight, self.marks))

    def __len__(self) -> int:
        return len(self.marks)


class UCoordinates(NamedTuple):
    """Coordinates of lambda + rho: u in the orthogonal basis, t in the
    fundamental-weight basis (every t_i >= 1 for dominant lambda)."""

    u: Tuple[Fraction, ...]
    t: Tuple[int, ...]


class Orbit(NamedTuple):
    """A center orbit: the marks of its lexicographically least member, and
    its size.  ``representative`` is that member as a vector (a tuple of
    vectors for products), from the weight set the orbit belongs to, which
    the repr leaves out."""

    marks: Marks
    size: int
    weight_set: LevelWeightSet

    @property
    def representative(self):
        return self.weight_set.weight(self.marks)

    def __repr__(self) -> str:
        return f"Orbit(marks={self.marks!r}, size={self.size!r})"


class OrbitSet(NamedTuple):
    orbits: Tuple[Orbit, ...]

    def total_size(self) -> int:
        return sum(o.size for o in self.orbits)

    def __len__(self) -> int:
        return len(self.orbits)


def _parts(factors: Sequence[Factor], n: Marks):
    """Each factor as ``(rs, level, part)``, with its part of the flat marks ``n``."""
    start = 0
    for rs, level in factors:
        yield rs, level, n[start:start + rs.rank]
        start += rs.rank


def _mark_bounds(factors: Sequence[Factor]):
    """The comark of each flat mark of ``factors``, and the level of each
    factor by the position of its first mark: the bounds of every recursion
    over the flat mark tuples.  Refuses an empty list and a negative level."""
    if not factors:
        raise ValueError("need at least one factor")
    comarks = []
    budgets = {}  # position of a factor's first mark -> its level
    for rs, level in factors:
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        budgets[len(comarks)] = level
        comarks += rs.comarks
    return comarks, budgets


def enumerate_product_weights(factors: Sequence[Factor]) -> LevelWeightSet:
    """All weights of a product of ``factors``, with (lambda | theta) <= l
    in each factor ``(rs, l)``.

    Enumerates the flat mark tuples n, the marks of each factor in turn,
    with sum n_i (w_i | theta) <= l over each factor's marks: the recursion
    gives each factor its own level budget at its first mark.  The output
    is ordered by the mark tuple, so it is deterministic and duplicate-free
    by construction.
    """
    factors = tuple(factors)
    comarks, budgets = _mark_bounds(factors)
    size = len(comarks)
    tuples = []

    def extend(i, remaining, cur):
        if i == size:
            tuples.append(tuple(cur))
            return
        remaining = budgets.get(i, remaining)
        m = comarks[i]
        for n in range(remaining // m + 1):
            cur.append(n)
            extend(i + 1, remaining - n * m, cur)
            cur.pop()

    extend(0, 0, [])
    return LevelWeightSet(factors=factors, marks=tuple(tuples))


def enumerate_level_weights(rs: RootSystem, level: int) -> LevelWeightSet:
    """All dominant weights of ``rs`` with (lambda | theta) <= level."""
    return enumerate_product_weights(((rs, level),))


def u_coords(rs: RootSystem, lam: Vector) -> UCoordinates:
    """Orthogonal coordinates of lambda + rho (types B and D only)."""
    if rs.family not in ("B", "D"):
        raise ValueError(f"u-coordinates are defined for types B and D, not {rs.family}")
    t = tuple(n + 1 for n in marks(rs, lam))
    if any(x < 1 for x in t):
        raise ValueError(f"{lam} is not dominant")
    return UCoordinates(u=vec_add(lam, rs.rho), t=t)


def _as_factors(factors) -> Tuple[Factor, ...]:
    """``factors`` as a tuple of ``(rs, level)``; a bare ``(rs, level)`` is
    one factor."""
    factors = tuple(factors)
    return (factors,) if factors and isinstance(factors[0], RootSystem) else factors


def _trivial_on_center(spec: CenterSpec, factors: Sequence[Factor]):
    """The test of flat marks n for a weight trivial on the center subgroup:
    the sum over the factors of their charged marks (A: the first, B: the
    last, D: the last two) is even.

    Raises ``ValueError`` unless ``spec`` acts on ``factors``: on those of
    ``_ACTS_ON``, with A1 levels of even sum, as only then does the swap
    n -> l - n keep the parity of the charged marks (an even level for
    SO(3), equal parities for SO(4)).
    """
    if spec is CenterSpec.TRIVIAL:
        return lambda n: True
    wanted = _ACTS_ON[spec]
    if len(factors) != len(wanted):
        count = "one factor" if len(wanted) == 1 else "two factors"
        raise ValueError(f"center spec {spec.value} acts on {count}, got {len(factors)}")
    if any(kind not in (rs.family, str(rs.group_type))
           for (rs, _), kind in zip(factors, wanted)):
        have = " x ".join(str(rs.group_type) for rs, _ in factors)
        raise ValueError(f"center spec {spec.value} does not apply to {have}; "
                         f"it acts on {' x '.join(wanted)} factors")
    a1_levels = [level for rs, level in factors if rs.family == "A"]
    if sum(a1_levels) % 2:
        raise ValueError(
            f"center spec {spec.value} needs an even level, or A1 levels of equal "
            f"parity (got {', '.join(map(str, a1_levels))})"
        )
    charged = {"A": (0,), "B": (-1,), "D": (-2, -1)}  # mark positions in a factor
    positions, start = [], 0
    for rs, _ in factors:
        positions += [start + i % rs.rank for i in charged[rs.family]]
        start += rs.rank
    return lambda n: sum(n[i] for i in positions) % 2 == 0


def restrict_to_quotient(P: LevelWeightSet, spec: CenterSpec) -> LevelWeightSet:
    """The weights of ``P`` trivial on the center subgroup ``spec``."""
    kept = filter(_trivial_on_center(spec, P.factors), P.marks)
    return LevelWeightSet(factors=P.factors, marks=tuple(kept))


def _affine_mark(rs: RootSystem, level: int, n: Marks) -> int:
    """n_0 = l - sum comark_i n_i; a weight lies at level l iff n_0 >= 0."""
    return level - sum(c * x for c, x in zip(rs.comarks, n))


def _within_levels(factors: Sequence[Factor], n: Marks) -> bool:
    """Whether the flat marks n are those of a weight within the levels of
    ``factors``: no mark, and no factor's affine mark, is negative."""
    return min(n) >= 0 and all(_affine_mark(*p) >= 0 for p in _parts(factors, n))


def center_act_marks(spec: CenterSpec, n: Marks, factors) -> Marks:
    """The order-2 center generator on flat marks: on each factor, the
    diagram automorphism of its affine Dynkin diagram that swaps n_0 and
    n_1, n_0 being the affine mark, and for type D also the last two marks
    (on A1, n -> l - n).

    ``factors`` follows :func:`center_act`; the marks are not validated.
    """
    if spec is CenterSpec.TRIVIAL:
        return n
    image = ()
    for rs, level, part in _parts(_as_factors(factors), n):
        swapped = (_affine_mark(rs, level, part),) + part[1:]
        if rs.family == "D":
            swapped = swapped[:-2] + (part[-1], part[-2])
        image += swapped
    return image


def center_act(spec: CenterSpec, w, factors):
    """Apply the order-2 generator of the center subgroup to a weight.

    ``factors`` is a sequence of ``(rs, level)`` pairs and ``w`` a tuple of
    weights, one per factor; a bare ``(rs, level)`` is one factor, whose
    weight ``w`` is a single vector.  ``w`` must be trivial on the subgroup
    and within the levels; on those weights the action is an involution.
    This is the vector view of :func:`center_act_marks`.
    """
    if spec is CenterSpec.TRIVIAL:
        return w
    factors = _as_factors(factors)
    trivial = _trivial_on_center(spec, factors)
    parts = (w,) if len(factors) == 1 else w
    n = sum((marks(rs, lam) for (rs, _), lam in zip(factors, parts)), ())
    if not trivial(n):
        raise ValueError(f"{w} is not trivial on the center subgroup {spec.value}")
    if not _within_levels(factors, n):
        levels = ", ".join(str(level) for _, level in factors)
        raise ValueError(f"{w} is not a level-{levels} weight")
    return LevelWeightSet(factors, ()).weight(center_act_marks(spec, n, factors))


def _orbit_size(spec: CenterSpec, factors, trivial, n: Marks) -> int:
    """The orbit size of the Gamma-trivial level weight n if n is its
    orbit's lexicographically least member, else 0: 1 if n is its own
    image, 2 if n < image; the rule of :func:`orbit_decompose`, not of the
    exact pass.  ``trivial`` is the test of :func:`_trivial_on_center`; an
    image that it refuses, or outside the levels, raises ``AssertionError``."""
    image = center_act_marks(spec, n, factors)
    if image != n and not (trivial(image) and _within_levels(factors, image)):
        raise AssertionError(f"center action left the level set: {n} -> {image}")
    return 0 if image < n else 1 if image == n else 2


# The rules by which the exact pass (``formula._terms``) walks a factor: in
# lexicographic order, it visits only the least member n of each orbit of a
# center group H, which acts by automorphisms of the affine Dynkin diagram and
# so leaves Delta fixed.  A rule reads b, the factor's marks (b[j] = n_(j+1)),
# and p, a state that is 1 at the factor's first mark.  ``step`` gives the
# least value of mark j, the state at that value and the state above it;
# ``close`` gives |H.n|, or 0 if n is not least, from ``rest``: n_0, less n_1
# under a reserve.  Under the trivial spec a leaf counts the product of the
# closes.  Every Gamma of ``_ACTS_ON`` is an H (B: SO_ODD, D: SO_EVEN, A1:
# SO3) or the diagonal of two A1 groups (SO4_DIAGONAL), whose orbit size is
# the first close that is not 1: that needs every factor after the first to
# walk freely under a diagonal spec, as A1 does (its step never raises a
# least value).
def _free(b, j, p):
    return 0, p, p


def _necklace_step(b, j, p):
    return (b[j - p] if j else 0), p, j + 1


def _necklace_close(b, rest, p):
    s = len(b)
    if rest < b[s - p]:
        return 0
    if rest > b[s - p]:
        p = s + 1
    return 0 if (s + 1) % p else p


def _mirror_step(b, j, p):
    s = len(b)
    if j != s - 2 or s < 3:
        return 0, p, p
    inner = next((x - y for x, y in zip(b[1:(s - 1) // 2], b[s - 3::-1]) if x != y), 0)
    return b[0] + (inner > 0), 0 if inner else p, 0


# Family -> (reserve, step, close).
# A: H = Z_(s+1) rotates (n_1, ..., n_s, n_0).  The least members are the
#    necklaces, walked as prenecklaces (Ruskey, Savage and Wang, "Generating
#    necklaces", J. Algorithms 13, 1992), and |H.n| is the period p.
# B: H swaps n_0 and n_1.  Reserving n_1 of the budget for n_0 (each unit of
#    n_1 costs its comark + 1) keeps n_1 <= n_0.
# C: H reverses the affine marks, n_i <-> n_(s-i).  The pairs (n_k, n_(s-k))
#    decide in turn, k = 1, 2, ..., then (n_s, n_0).  The walk meets
#    n_(s-1) after the inner pairs (k >= 2), so it starts n_(s-1) at n_1, or
#    at n_1 + 1 if they put n above its image; p stays 1 while all pairs tie.
# D: H is the SO_EVEN generator, n_0 <-> n_1 with n_(s-1) <-> n_s, reserved
#    as for B; an order-2 subgroup of the center.
_LEAST_MEMBERS = {
    "A": (0, _necklace_step, _necklace_close),
    "B": (1, _free, lambda b, rest, p: 2 if rest else 1),
    "C": (0, _mirror_step,
          lambda b, rest, p: 2 if not p or b[-1] < rest else int(b[-1] == rest)),
    "D": (1, _free, lambda b, rest, p: 2 if rest or b[-2] < b[-1] else int(b[-2] == b[-1])),
}


def orbit_decompose(Pprime: LevelWeightSet, spec: CenterSpec) -> OrbitSet:
    """Group a restricted level set into center orbits.

    Representatives are the members with lexicographically minimal mark
    tuples (:func:`_orbit_size`); orbits are listed in representative order.
    """
    factors = Pprime.factors
    trivial = _trivial_on_center(spec, factors)
    orbits = []
    for n in sorted(Pprime.marks):
        if not trivial(n):
            raise ValueError(f"{n} is not trivial on the center subgroup {spec.value}")
        size = _orbit_size(spec, factors, trivial, n)
        if size:
            orbits.append(Orbit(marks=n, size=size, weight_set=Pprime))
    return OrbitSet(orbits=tuple(orbits))
