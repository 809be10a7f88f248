"""Level weights: their bounds, the center subgroups, the one walk over them.

A weight set belongs to a product of simply connected factors, each with
its own level; a simple group is the one-factor case.  A weight is one flat
tuple of marks (coefficients in the fundamental-weight basis), the factors'
marks in turn, with (lambda | theta) = sum comark_i n_i <= l in every
factor.  The one recursion over them, ``_walk``, takes its bounds from
``_mark_bounds``, starts from rho and stores no weight set; it serves the
exact pass (``formula._terms``) and the listings of the ``weights``
command, :func:`enumerate_level_weights` and :func:`orbit_decompose`.

One table, ``_ACTS_ON``, states which factors each order-2 center subgroup
acts on, and ``_trivial_on_center`` tests whether a weight's character is
trivial on it (a parity test on a few marks of each factor).  A second
table, ``_LEAST_MEMBERS``, gives the rule per family by which the walk
visits one weight per center orbit, under every center spec; by the rules
of ``_EVERY_WEIGHT`` it visits them all.

Types B and D also carry the coordinate view used throughout: writing
lambda + rho = sum u_i e_i, the u_i form a strictly decreasing sequence of
half-integers, and membership in the quotient sublattice becomes an
integrality condition on the u_i.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import List, NamedTuple, Sequence, Tuple

from .rootsys import RootSystem, Vector, marks

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


class UCoordinates(NamedTuple):
    """Coordinates of lambda + rho: u in the orthogonal basis, t in the
    fundamental-weight basis (every t_i >= 1 for dominant lambda)."""

    u: Tuple[Fraction, ...]
    t: Tuple[int, ...]


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


def u_coords(rs: RootSystem, lam: Vector) -> UCoordinates:
    """Orthogonal coordinates of lambda + rho (types B and D only)."""
    if rs.family not in ("B", "D"):
        raise ValueError(f"u-coordinates are defined for types B and D, not {rs.family}")
    t = tuple(n + 1 for n in marks(rs, lam))
    if any(x < 1 for x in t):
        raise ValueError(f"{lam} is not dominant")
    d = rs.denominator  # marks() has checked that d lambda is an integer vector
    return UCoordinates(
        u=tuple(Fraction(int(d * x) + r, d) for x, r in zip(lam, rs.scaled_rho)), t=t
    )


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


# The rules by which the walk (``_walk``) visits a factor: in
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

# The rules of the unrestricted listing: every weight, each its own orbit.
_EVERY_WEIGHT = dict.fromkeys("ABCD", (0, _free, lambda b, rest, p: 1))


# The center subgroup of each family whose quotient is an SO group:
# SO(3) = SL(2) / Z_2, SO(2s+1) = Spin(2s+1) / Z_2, SO(2s) = Spin(2s) / Z_2.
_SO_QUOTIENT = {"A": CenterSpec.SO3, "B": CenterSpec.SO_ODD, "D": CenterSpec.SO_EVEN}


def _walk(factors: Sequence[Factor], spec: CenterSpec, leaf, rules=_LEAST_MEMBERS,
          columns=None) -> None:
    """The one recursion over the flat mark tuples of ``factors``, pairs
    ``(rs, level)``, in lexicographic order.

    Each factor walks by its family's rule in ``rules``: by
    ``_LEAST_MEMBERS`` the walk visits only the least member of each center
    orbit of every factor, by ``_EVERY_WEIGHT`` all of P_l.  It carries one
    int, the sum of (n_i + 1) times ``columns[i]`` over the flat marks, so
    that a node costs one int add (the exact pass packs the pairing columns
    into fields of one int each, and their sum is rho; without columns the
    int is 0).  Each kept leaf calls ``leaf(js, m, weight, parts)``, js
    being that int and ``parts`` the lists of each factor's marks, which the
    walk goes on changing.  Under the trivial spec m is 1 and the weight is
    the product of the factors' orbit sizes; under a quotient only
    Gamma-trivial leaves are kept, each with weight 1 and its Gamma-orbit
    size as m.
    """
    comarks, budgets = _mark_bounds(factors)
    trivial = _trivial_on_center(spec, factors)
    if columns is None:
        columns = [0] * len(comarks)
    parts = []  # each factor's marks
    plan = []  # by depth: (the factor's marks, mark, step, cost per unit, column)
    closes = {}  # depth after a factor's last mark -> that factor's close
    for rs, _ in factors:
        reserve, step, close = rules[rs.family]
        b = [0] * rs.rank
        for j in range(rs.rank):
            cost = comarks[len(plan)] + (reserve if j == 0 else 0)
            plan.append((b, j, step, cost, columns[len(plan)]))
        parts.append(b)
        closes[len(plan)] = partial(close, b)
    size = len(plan)
    quotient = spec is not CenterSpec.TRIVIAL

    def walk(i, remaining, js, p, weight):
        if i in closes and (weight == 1 or not quotient):  # see _LEAST_MEMBERS
            weight *= closes[i](remaining, p)
            if not weight:
                return
        if i == size:
            m = 1
            if quotient:
                if not trivial(tuple(chain.from_iterable(parts))):
                    return
                m, weight = weight, 1
            leaf(js, m, weight, parts)
            return
        if i in budgets:
            remaining, p = budgets[i], 1
        b, j, step, cost, column = plan[i]
        low, at_low, above = step(b, j, p)
        for n in range(low, remaining // cost + 1):
            if n > low:
                js += column
            elif n:
                js += n * column
            b[j] = n
            walk(i + 1, remaining - n * cost, js, above if n > low else at_low, weight)

    walk(0, 0, sum(columns), 1, 1)
    del walk  # the closure refers to itself; free it and its state now


def enumerate_level_weights(rs: RootSystem, level: int) -> List[Marks]:
    """The marks of every weight of P_l of ``rs``, in lexicographic order,
    listed by the walk."""
    listing = []
    _walk(((rs, level),), CenterSpec.TRIVIAL,
          lambda js, m, weight, parts: listing.append(tuple(parts[0])), _EVERY_WEIGHT)
    return listing


def orbit_decompose(rs: RootSystem, level: int) -> List[Tuple[Marks, int]]:
    """The Gamma-orbits of the level weights of ``rs`` trivial on Gamma, the
    center subgroup whose quotient is an SO group (SO3 for A1, SO_ODD for B,
    SO_EVEN for D): ``(marks, size)`` of each orbit's least member, in
    lexicographic order, listed by the walk, whose rules' group is Gamma.

    Refuses a negative level before a family without such a quotient, and
    A_s for s >= 2 or A1 at an odd level as ``_trivial_on_center`` does.
    """
    factors = ((rs, level),)
    _mark_bounds(factors)
    spec = _SO_QUOTIENT.get(rs.family)
    if spec is None:
        raise ValueError(f"no SO-type center quotient for {rs.group_type}")
    listing = []
    _walk(factors, spec, lambda js, m, weight, parts: listing.append((tuple(parts[0]), m)))
    return listing
