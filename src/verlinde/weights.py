"""Level-bounded dominant weights, center quotients and their orbits.

``enumerate_level_weights`` lists the dominant weights lambda with
(lambda | theta) <= l, ordered by their fundamental-weight coefficient
tuples.  Weight sets store those integer mark tuples; their ``weights``
attribute is the coordinate-vector view, built only when asked for.  For a
quotient by an order-2 center subgroup, ``restrict_to_quotient`` keeps the
weights whose character is trivial on the subgroup (a parity test on the
marks) and ``orbit_decompose`` groups them into orbits under the induced
involution, which acts on the marks as a diagram automorphism of the affine
Dynkin diagram (:func:`center_act_marks`).

Types B and D also carry the coordinate view used throughout: writing
lambda + rho = sum u_i e_i, the u_i form a strictly decreasing sequence of
half-integers, and membership in the quotient sublattice becomes an
integrality condition on the u_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import product
from typing import Sequence, Tuple

from .rootsys import (
    RootSystem,
    Vector,
    marks,
    vec_add,
    vec_sub,
    weight_from_marks,
)

Marks = Tuple[int, ...]


class CenterSpec(Enum):
    """Supported order-<=2 center subgroups, named by the quotient group."""

    TRIVIAL = "trivial"
    SO_EVEN = "so-even"  # kernel of Spin(2s) -> SO(2s), type D
    SO_ODD = "so-odd"  # kernel of Spin(2s+1) -> SO(2s+1), type B
    SO3 = "so3"  # kernel of SL(2) -> SO(3), type A1 at even level
    SO4_DIAGONAL = "so4-diagonal"  # (-I, -I) in SL(2) x SL(2)


@dataclass(frozen=True)
class LevelWeightSet:
    """All dominant weights of ``rs`` at level <= ``level``, in canonical order.

    The weights are stored as their mark tuples; ``weights`` is the
    coordinate-vector view of the same list, built on first use.
    """

    rs: RootSystem
    level: int
    marks: Tuple[Marks, ...]

    @property
    def k(self) -> int:
        """The shifted level l + h appearing in all denominators."""
        return self.level + self.rs.dual_coxeter

    def weight(self, n: Marks) -> Vector:
        return weight_from_marks(self.rs, n)

    @cached_property
    def weights(self) -> Tuple[Vector, ...]:
        return tuple(map(self.weight, self.marks))

    def __len__(self) -> int:
        return len(self.marks)


@dataclass(frozen=True)
class ProductLevelWeightSet:
    """Weight tuples for a product of simply connected factors, stored as
    tuples of per-factor mark tuples; ``weights`` is the vector view."""

    factors: Tuple[Tuple[RootSystem, int], ...]
    marks: Tuple[Tuple[Marks, ...], ...]

    def weight(self, ns: Tuple[Marks, ...]) -> Tuple[Vector, ...]:
        return tuple(weight_from_marks(rs, n) for (rs, _), n in zip(self.factors, ns))

    @cached_property
    def weights(self) -> Tuple[Tuple[Vector, ...], ...]:
        return tuple(map(self.weight, self.marks))

    def __len__(self) -> int:
        return len(self.marks)


@dataclass(frozen=True)
class UCoordinates:
    """Coordinates of lambda + rho: u in the orthogonal basis, t in the
    fundamental-weight basis (every t_i >= 1 for dominant lambda)."""

    u: Tuple[Fraction, ...]
    t: Tuple[int, ...]


@dataclass(frozen=True)
class Orbit:
    """A center orbit: the marks of its lexicographically least member, and
    its size.  ``representative`` is that member as a vector (a tuple of
    vectors for products)."""

    marks: object  # Marks, or a tuple of Marks for products
    size: int
    weight_set: object = field(repr=False, compare=False)

    @property
    def representative(self):
        return self.weight_set.weight(self.marks)


@dataclass(frozen=True)
class OrbitSet:
    orbits: Tuple[Orbit, ...]

    def total_size(self) -> int:
        return sum(o.size for o in self.orbits)

    def __len__(self) -> int:
        return len(self.orbits)


def enumerate_level_weights(rs: RootSystem, level: int) -> LevelWeightSet:
    """All dominant weights with (lambda | theta) <= level.

    Enumerates fundamental-weight coefficient tuples n with
    sum n_i (w_i | theta) <= level; the output is ordered by the coefficient
    tuple, so it is deterministic and duplicate-free by construction.
    """
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    m = rs.comarks
    tuples = []

    def extend(i, remaining, cur):
        if i == rs.rank:
            tuples.append(tuple(cur))
            return
        for n in range(remaining // m[i] + 1):
            cur.append(n)
            extend(i + 1, remaining - n * m[i], cur)
            cur.pop()

    extend(0, level, [])
    return LevelWeightSet(rs=rs, level=level, marks=tuple(tuples))


def enumerate_product_weights(
    factors: Sequence[Tuple[RootSystem, int]]
) -> ProductLevelWeightSet:
    """Cartesian product of the per-factor level weight sets."""
    if not factors:
        raise ValueError("need at least one factor")
    per_factor = [enumerate_level_weights(rs, lvl).marks for rs, lvl in factors]
    return ProductLevelWeightSet(
        factors=tuple(factors), marks=tuple(product(*per_factor))
    )


def u_coords(rs: RootSystem, lam: Vector) -> UCoordinates:
    """Orthogonal coordinates of lambda + rho (types B and D only)."""
    if rs.family not in ("B", "D"):
        raise ValueError(f"u-coordinates are defined for types B and D, not {rs.family}")
    t = tuple(n + 1 for n in marks(rs, lam))
    if any(x < 1 for x in t):
        raise ValueError(f"{lam} is not dominant")
    return UCoordinates(u=vec_add(lam, rs.rho), t=t)


def weight_from_u(rs: RootSystem, u: Sequence[Fraction]) -> Vector:
    """Inverse of :func:`u_coords`; validates the result is dominant integral."""
    if rs.family not in ("B", "D"):
        raise ValueError(f"u-coordinates are defined for types B and D, not {rs.family}")
    lam = vec_sub(tuple(Fraction(x) for x in u), rs.rho)
    if any(n < 0 for n in marks(rs, lam)):
        raise ValueError(f"u-coordinates {u} do not give a dominant weight")
    return lam


def _check_single_spec(spec: CenterSpec, rs: RootSystem) -> None:
    wanted = {
        CenterSpec.SO_EVEN: ("D", None),
        CenterSpec.SO_ODD: ("B", None),
        CenterSpec.SO3: ("A", 1),
    }
    if spec is CenterSpec.TRIVIAL:
        return
    if spec is CenterSpec.SO4_DIAGONAL:
        raise ValueError("so4-diagonal acts on weight pairs, not single weights")
    family, rank = wanted[spec]
    if rs.family != family or (rank is not None and rs.rank != rank):
        raise ValueError(f"center spec {spec.value} does not apply to {rs.group_type}")


def _trivial_on_center(spec: CenterSpec, n: Marks) -> bool:
    """Whether the weight with marks ``n`` is trivial on the center subgroup."""
    if spec is CenterSpec.SO_EVEN:
        # equivalently: all u-coordinates of lambda + rho are integers
        return (n[-2] - n[-1]) % 2 == 0
    if spec is CenterSpec.SO_ODD:
        # equivalently: all u-coordinates lie in Z + 1/2
        return n[-1] % 2 == 0
    if spec is CenterSpec.SO3:
        return n[0] % 2 == 0
    return True


def is_quotient_weight(spec: CenterSpec, rs: RootSystem, lam: Vector) -> bool:
    """Whether the character lambda is trivial on the center subgroup."""
    _check_single_spec(spec, rs)
    return _trivial_on_center(spec, marks(rs, lam))


def restrict_to_quotient(P: LevelWeightSet, spec: CenterSpec) -> LevelWeightSet:
    """The sub-level-set of weights trivial on the center subgroup."""
    _check_single_spec(spec, P.rs)
    kept = tuple(n for n in P.marks if _trivial_on_center(spec, n))
    return LevelWeightSet(rs=P.rs, level=P.level, marks=kept)


def restrict_product_to_quotient(
    P: ProductLevelWeightSet, spec: CenterSpec
) -> ProductLevelWeightSet:
    """Product-version of the restriction (diagonal center of SL2 x SL2)."""
    if spec is CenterSpec.TRIVIAL:
        return P
    if spec is not CenterSpec.SO4_DIAGONAL:
        raise ValueError(f"center spec {spec.value} does not apply to products")
    _check_so4_factors(P.factors)
    kept = tuple(ns for ns in P.marks if (ns[0][0] + ns[1][0]) % 2 == 0)
    return ProductLevelWeightSet(factors=P.factors, marks=kept)


def _check_so4_factors(factors) -> None:
    if len(factors) != 2:
        raise ValueError("so4-diagonal requires exactly two factors")
    for rs, lvl in factors:
        if rs.family != "A" or rs.rank != 1:
            raise ValueError("so4-diagonal requires two A1 factors")
    if (factors[0][1] + factors[1][1]) % 2 != 0:
        raise ValueError(
            "so4-diagonal requires levels of equal parity "
            f"(got {factors[0][1]}, {factors[1][1]})"
        )


def _check_action(spec: CenterSpec, factors) -> None:
    """Validate that ``spec`` acts on the level weights of ``factors``."""
    if spec is CenterSpec.SO4_DIAGONAL:
        _check_so4_factors(factors)
        return
    rs, level = factors
    _check_single_spec(spec, rs)
    if spec is CenterSpec.SO3 and level % 2 != 0:
        raise ValueError("the SO3 quotient needs an even level")


def _affine_mark(rs: RootSystem, level: int, n: Marks) -> int:
    """n_0 = l - sum comark_i n_i; a weight lies at level l iff n_0 >= 0."""
    return level - sum(c * x for c, x in zip(rs.comarks, n))


def center_act_marks(spec: CenterSpec, n, factors):
    """The order-2 center generator on marks: a diagram automorphism of the
    affine Dynkin diagram, with n_0 the affine mark.

    B swaps n_0 and n_1; D swaps n_0 and n_1, and n_(s-1) and n_s; A1 sends
    n to l - n, factor by factor for the diagonal SO(4) case.  ``n`` and
    ``factors`` follow :func:`center_act`; the marks are not validated.
    """
    if spec is CenterSpec.TRIVIAL:
        return n
    if spec is CenterSpec.SO4_DIAGONAL:
        return tuple((lvl - part[0],) for (_, lvl), part in zip(factors, n))
    rs, level = factors
    if spec is CenterSpec.SO3:
        return (level - n[0],)
    n0 = _affine_mark(rs, level, n)
    if spec is CenterSpec.SO_ODD:
        return (n0,) + n[1:]
    return (n0,) + n[1:-2] + (n[-1], n[-2])  # SO_EVEN


def center_act(spec: CenterSpec, w, factors):
    """Apply the order-2 generator of the center subgroup to a weight.

    ``factors`` is ``(rs, level)`` for a single weight, or a sequence of
    ``(rs, level)`` pairs when ``w`` is a tuple of weights (the diagonal
    product case).  The action is an involution on the quotient sublattice;
    this is the vector view of :func:`center_act_marks`.
    """
    if spec is CenterSpec.TRIVIAL:
        return w
    factors = tuple(factors)
    _check_action(spec, factors)
    if spec is CenterSpec.SO4_DIAGONAL:
        ns = tuple(
            _level_marks(spec, rs, lvl, part) for (rs, lvl), part in zip(factors, w)
        )
        image = center_act_marks(spec, ns, factors)
        return tuple(weight_from_marks(rs, n) for (rs, _), n in zip(factors, image))
    rs, level = factors
    return weight_from_marks(
        rs, center_act_marks(spec, _level_marks(spec, rs, level, w), factors)
    )


def _level_marks(spec: CenterSpec, rs: RootSystem, level: int, lam: Vector) -> Marks:
    """The marks of ``lam``, checked to be a Gamma-trivial level-``level`` weight."""
    n = marks(rs, lam)
    if not _trivial_on_center(spec, n):
        raise ValueError(f"{lam} is not trivial on the center subgroup {spec.value}")
    if min(n) < 0 or _affine_mark(rs, level, n) < 0:
        raise ValueError(f"{lam} is not a level-{level} weight")
    return n


def orbit_decompose(Pprime, spec: CenterSpec) -> OrbitSet:
    """Group a restricted level set into center orbits.

    Representatives are the members with lexicographically minimal
    coefficient tuples; orbits are listed in representative order.  Orbit
    sizes are 1 (fixed point) or 2.
    """
    if isinstance(Pprime, ProductLevelWeightSet):
        factors = Pprime.factors
    else:
        factors = (Pprime.rs, Pprime.level)
    if spec is not CenterSpec.TRIVIAL:
        _check_action(spec, factors)
    members = set(Pprime.marks)
    seen = set()
    orbits = []
    for n in sorted(Pprime.marks):
        if n in seen:
            continue
        if not _trivial_on_center(spec, n):
            raise ValueError(f"{n} is not trivial on the center subgroup {spec.value}")
        image = center_act_marks(spec, n, factors)
        if image not in members:
            raise AssertionError(f"center action left the level set: {n} -> {image}")
        seen.add(n)
        seen.add(image)
        orbits.append(Orbit(marks=n, size=1 if image == n else 2, weight_set=Pprime))
    return OrbitSet(orbits=tuple(orbits))
