"""Exact-arithmetic helpers used as independent oracles in the tests."""

import math
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache

import mpmath

from verlinde.numeric import _sine_table
from verlinde.rootsys import RootSystem, marks, weight_from_marks
from verlinde.weights import CenterSpec, _trivial_on_center


def vec_add(v, w):
    return tuple(a + b for a, b in zip(v, w))


def vec_neg(v):
    return tuple(-a for a in v)


def vec_scale(c, v):
    c = Fraction(c)
    return tuple(c * a for a in v)


def vec_sub(v, w):
    return tuple(a - b for a, b in zip(v, w))


# --- the Fraction reference for the integer weight lattice --------------------
#
# ``RootSystem`` keeps only integers: the common denominator d of the
# fundamental weights and the vectors d omega_i.  These helpers are the
# Fraction views and the invariant form that the integer data is checked
# against; rho is taken from the positive roots, not from the d omega_i.


def fundamental_weights(rs):
    """The fundamental weights omega_i, as Fraction vectors."""
    return tuple(tuple(Fraction(x, rs.denominator) for x in w) for w in rs.scaled_weights)


def rho(rs):
    """rho, half the sum of the positive roots, as a Fraction vector."""
    return tuple(Fraction(sum(c), 2) for c in zip(*rs.positive_roots))


def gram_scale(rs):
    """The scale of the form over the dot product: theta is a long root, of
    squared length 2."""
    return Fraction(2, sum(x * x for x in rs.theta))


def inner(rs, v, w):
    """The normalized invariant form (long roots have squared length 2)."""
    if len(v) != rs.dim or len(w) != rs.dim:
        raise ValueError(
            f"dimension mismatch: {rs.group_type} vectors have {rs.dim} coordinates"
        )
    return gram_scale(rs) * sum(a * b for a, b in zip(v, w))


def is_root(rs, v):
    return v in rs.positive_roots or vec_neg(v) in rs.positive_roots


def coroot_pairing(rs, lam, alpha):
    """Pairing <lam, alpha^vee> = 2 (lam | alpha) / (alpha | alpha)."""
    if not is_root(rs, alpha):
        raise ValueError(f"{alpha} is not a root of {rs.group_type}")
    return 2 * inner(rs, lam, alpha) / inner(rs, alpha, alpha)


def is_dominant(rs, lam):
    return all(coroot_pairing(rs, lam, a) >= 0 for a in rs.simple_roots)


def level_of(rs, lam):
    """(lam | theta); a weight lies at level l when this is <= l."""
    return inner(rs, lam, rs.theta)


def weight_from_u(rs, u):
    """Inverse of :func:`verlinde.weights.u_coords`; validates the result is
    dominant integral."""
    if rs.family not in ("B", "D"):
        raise ValueError(f"u-coordinates are defined for types B and D, not {rs.family}")
    lam = vec_sub(tuple(Fraction(x) for x in u), rho(rs))
    if any(n < 0 for n in marks(rs, lam)):
        raise ValueError(f"u-coordinates {u} do not give a dominant weight")
    return lam


def is_quotient_weight(spec, rs, lam):
    """Whether the character lambda is trivial on the center subgroup."""
    # the character does not depend on the level
    return _trivial_on_center(spec, ((rs, 0),))(marks(rs, lam))


def solve_exact(basis, target):
    """Coefficients expressing ``target`` in ``basis`` (exact, or raise).

    ``basis`` is a list of coordinate tuples that may live in a larger
    ambient space (more coordinates than vectors); the system must be
    consistent and have a unique solution.
    """
    n = len(basis)
    dim = len(target)
    # rows: one equation per coordinate, columns per basis vector
    rows = [[Fraction(basis[j][i]) for j in range(n)] + [Fraction(target[i])]
            for i in range(dim)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, dim) if rows[i][c] != 0), None)
        if pivot is None:
            raise ValueError("basis is not independent")
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(dim):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    for i in range(r, dim):
        if rows[i][n] != 0:
            raise ValueError("target is not in the span of the basis")
    return [rows[i][n] for i in range(n)]


def reflection_closure(simple_roots):
    """All roots, generated by closing the simple roots under the simple
    reflections s_i(b) = b - <b, a_i^vee> a_i.  Independent of any stored
    root table; the coroot pairing needs no normalization since the form
    scale cancels in 2 (b|a)/(a|a)."""

    def dot(v, w):
        return sum(a * b for a, b in zip(v, w))

    def reflect(beta, alpha):
        c = Fraction(2 * dot(beta, alpha), dot(alpha, alpha))
        return tuple(b - c * a for b, a in zip(beta, alpha))

    roots = set(simple_roots)
    frontier = list(simple_roots)
    while frontier:
        beta = frontier.pop()
        for alpha in simple_roots:
            image = reflect(beta, alpha)
            if image not in roots:
                roots.add(image)
                frontier.append(image)
    # closure under reflections of the simple roots gives every root except
    # possibly negatives reached already; close under negation explicitly
    for beta in list(roots):
        neg = tuple(-x for x in beta)
        roots.add(neg)
    return roots


# --- the Fraction reference for the recurrence fit ----------------------------


def berlekamp_massey(sequence):
    """The shortest linear recurrence of ``sequence`` over Q (Massey, IEEE
    Trans. Inf. Theory 15, 1969), in Fractions: a_1..a_L with
    s_n = a_1 s_(n-1) + ... + a_L s_(n-L) for every n >= L in it.  The
    reference for the engine's fraction-free fit."""
    s = [Fraction(x) for x in sequence]
    C, B = [Fraction(1)], [Fraction(1)]  # connection polynomials, now and at the last change
    L, shift, last = 0, 1, Fraction(1)
    for n in range(len(s)):
        discrepancy = sum(C[i] * s[n - i] for i in range(L + 1))
        if discrepancy == 0:
            shift += 1
            continue
        previous = C
        C = C + [Fraction(0)] * (len(B) + shift - len(C))
        for i, b in enumerate(B):
            C[i + shift] -= discrepancy / last * b
        if 2 * L <= n:
            L, B, last, shift = n + 1 - L, previous, discrepancy, 1
        else:
            shift += 1
    return [-c for c in C[1:L + 1]]


# --- the set-based reference for the walk ------------------------------------
#
# Plain functions over flat mark tuples (the marks of each factor in turn) of
# a product of ``factors``, pairs ``(rs, level)``.  They list all of P_l and
# find each orbit's least member by applying the center action, so they share
# no orbit rule with the walk of ``weights._walk``.


def enumerate_product_weights(factors):
    """Every flat mark tuple with (lambda | theta) <= l in each factor
    ``(rs, l)``, in lexicographic order: the recursion gives each factor its
    own level budget at its first mark.  The bounds are read from the comarks
    here, not from ``weights._mark_bounds``, so the reference shares no level
    rule with the walk."""
    comarks, budgets = [], {}  # budgets: a factor's first mark -> its level
    for rs, level in factors:
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        budgets[len(comarks)] = level
        comarks += rs.comarks
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
    return tuple(tuples)


def enumerate_level_weights(rs, level):
    """The mark tuples of the dominant weights of ``rs`` at level <= ``level``."""
    return enumerate_product_weights(((rs, level),))


def _as_factors(factors):
    """``factors`` as a tuple of ``(rs, level)``; a bare ``(rs, level)`` is
    one factor."""
    factors = tuple(factors)
    return (factors,) if factors and isinstance(factors[0], RootSystem) else factors


def _parts(factors, n):
    """Each factor as ``(rs, level, part)``, with its part of the flat marks ``n``."""
    start = 0
    for rs, level in factors:
        yield rs, level, n[start:start + rs.rank]
        start += rs.rank


def _affine_mark(rs, level, n):
    """n_0 = l - sum comark_i n_i; a weight lies at level l iff n_0 >= 0."""
    return level - sum(c * x for c, x in zip(rs.comarks, n))


def _within_levels(factors, n):
    """Whether the flat marks n are those of a weight within the levels of
    ``factors``: no mark, and no factor's affine mark, is negative."""
    return min(n) >= 0 and all(_affine_mark(*p) >= 0 for p in _parts(factors, n))


def weight_of(factors, n):
    """The flat marks ``n`` as a vector, or as a tuple of vectors, one per
    factor, for a product; ``factors`` as in :func:`center_act`."""
    vectors = tuple(weight_from_marks(rs, p) for rs, _, p in _parts(_as_factors(factors), n))
    return vectors[0] if len(vectors) == 1 else vectors


def restrict_to_quotient(P, spec, factors):
    """The mark tuples of ``P`` trivial on the center subgroup ``spec``."""
    return tuple(filter(_trivial_on_center(spec, _as_factors(factors)), P))


def center_act_marks(spec, n, factors):
    """The order-2 center generator on flat marks: on each factor, the
    diagram automorphism of its affine Dynkin diagram that swaps n_0 and
    n_1, n_0 being the affine mark, and for type D also the last two marks
    (on A1, n -> l - n).  The marks are not validated."""
    if spec is CenterSpec.TRIVIAL:
        return n
    image = ()
    for rs, level, part in _parts(_as_factors(factors), n):
        swapped = (_affine_mark(rs, level, part),) + part[1:]
        if rs.family == "D":
            swapped = swapped[:-2] + (part[-1], part[-2])
        image += swapped
    return image


def center_act(spec, w, factors):
    """The order-2 generator of the center subgroup on a weight: the vector
    view of :func:`center_act_marks`.

    ``factors`` is a sequence of ``(rs, level)`` pairs and ``w`` a tuple of
    weights, one per factor; a bare ``(rs, level)`` is one factor, whose
    weight ``w`` is a single vector.  ``w`` must be trivial on the subgroup
    and within the levels; on those weights the action is an involution.
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
    return weight_of(factors, center_act_marks(spec, n, factors))


def _orbit_size(spec, factors, trivial, n):
    """The orbit size of the Gamma-trivial level weight n if n is its
    orbit's lexicographically least member, else 0: 1 if n is its own
    image, 2 if n < image.  ``trivial`` is the test of
    ``weights._trivial_on_center``; an image that it refuses, or outside the
    levels, raises ``AssertionError``."""
    image = center_act_marks(spec, n, factors)
    if image != n and not (trivial(image) and _within_levels(factors, image)):
        raise AssertionError(f"center action left the level set: {n} -> {image}")
    return 0 if image < n else 1 if image == n else 2


def orbit_decompose(P, spec, factors):
    """The center orbits of the Gamma-trivial mark tuples ``P``, as
    ``(marks, size)`` pairs of each orbit's lexicographically least member,
    in the order of the marks."""
    factors = _as_factors(factors)
    trivial = _trivial_on_center(spec, factors)
    orbits = []
    for n in sorted(P):
        if not trivial(n):
            raise ValueError(f"{n} is not trivial on the center subgroup {spec.value}")
        size = _orbit_size(spec, factors, trivial, n)
        if size:
            orbits.append((n, size))
    return tuple(orbits)


def reference_listing(factors, spec=None):
    """What the walk lists, from the set-based reference: every weight with
    orbit size 1 (``weights.enumerate_level_weights``), or each Gamma-orbit's
    least member and its size (``weights.orbit_decompose``)."""
    P = enumerate_product_weights(factors)
    if spec is None or spec is CenterSpec.TRIVIAL:
        return [(n, 1) for n in P]
    return list(orbit_decompose(restrict_to_quotient(P, spec, factors), spec, factors))


def reference_terms(factors, spec):
    """The exact pass of ``formula._terms``, weight by weight, as a
    ``(denominator, terms)`` tuple.

    Each Gamma-orbit representative with flat marks n, split into its
    factors' parts in turn, gets one numerator per positive root of each
    factor, ``j = sum_i (n_i + 1) M[a][i] * scale mod D`` with M the factor's
    pairing matrix, D the lcm of the factors' 2(l+h) and scale = D / 2(l+h),
    folded to ``min(j, D - j)``.  Representatives with equal orbit size and
    sorted numerators merge into one ``(count, size, numerators)`` term, in
    the order first seen.
    """
    factors = tuple(factors)
    shifted = [2 * (level + rs.dual_coxeter) for rs, level in factors]
    D = math.lcm(*shifted)
    counts = {}
    for n, size in reference_listing(factors, spec):
        numerators = []
        start = 0
        for (rs, _), d in zip(factors, shifted):
            part = n[start:start + rs.rank]
            start += rs.rank
            for row in rs.pairing_matrix:
                j = sum((x + 1) * m for x, m in zip(part, row)) * (D // d) % D
                numerators.append(min(j, D - j))
        key = (size, tuple(sorted(numerators)))
        counts[key] = counts.get(key, 0) + 1
    return D, tuple((c, size, js) for (size, js), c in counts.items())


def numerators_of(spectrum, key):
    """The sorted numerators of a term's key: the key itself where the
    spectrum's ``width`` is 0, else each j repeated by the count in the
    ``width`` bits of the key from bit ``width * j``, j = 0..D/2."""
    w = spectrum.width
    if not w:
        return key
    mask = (1 << w) - 1
    assert key >> w * (spectrum.denominator // 2 + 1) == 0, "a count past slot D/2"
    return tuple(j for j in range(spectrum.denominator // 2 + 1)
                 for _ in range(key >> w * j & mask))


def sorted_terms(spectrum):
    """The spectrum as a ``(denominator, terms)`` tuple with each key
    decoded to its sorted numerators, as :func:`reference_terms` gives it;
    every term has the spectrum's ``roots`` numerators."""
    terms = tuple((c, m, numerators_of(spectrum, key)) for c, m, key in spectrum.terms)
    assert all(len(js) == spectrum.roots for _, _, js in terms), "a term without R numerators"
    return spectrum.denominator, terms


def galois_failures(spectrum):
    """The units a mod D whose Galois map j -> a j mod D, reduced to
    min(x, D - x), does not carry ``spectrum`` onto itself, keys
    ``(m, numerators)`` and counts included; a and D - a give one map.

    For gcd(a, D) = 1, zeta -> zeta^a permutes the rows of the S-matrix up
    to sign (Coste and Gannon, "Remarks on Galois symmetry in rational
    conformal field theories", Phys. Lett. B 323, 1994), so the list is
    empty for every spectrum of the exact pass: an exact invariant that
    shares no rule with the walk.
    """
    D, terms = sorted_terms(spectrum)
    terms = {(m, js): count for count, m, js in terms}
    failures = []
    for a in range(2, (D + 1) // 2):
        if math.gcd(a, D) != 1:
            continue
        image = {}
        for (m, js), count in terms.items():
            key = (m, tuple(sorted(min(a * j % D, -a * j % D) for j in js)))
            image[key] = image.get(key, 0) + count
        if image != terms:
            failures.append(a)
    return failures


def reference_products(spectrum, factors, bits):
    """The Delta of each term of the spectrum of ``factors``: the product of
    the sine tables' values at ``bits`` (the sines that ``formula._products``
    reads), each converted to mpf and multiplied out at bits + 64.

    A numerator j / D is read at j d / D from the table of d = 2(l+h), or
    of l + h for types A and D, of the last factor whose D / d divides j."""
    D = spectrum.denominator
    denominators = [(lvl + rs.dual_coxeter) * (1 if rs.family in "AD" else 2)
                    for rs, lvl in reversed(factors)]

    def sine(j):
        d = next(d for d in denominators if j % (D // d) == 0)
        n, q = _sine_table(d, bits)[j // (D // d)].as_integer_ratio()
        return mpmath.mpf(n) / q

    with mpmath.workprec(bits + 64):
        return [mpmath.fprod(map(sine, js)) for _, _, js in sorted_terms(spectrum)[1]]


def reference_kernel(spectrum, deltas, T, genus, gamma_order, bits):
    """``formula._kernel`` in mpf operator form: |Gamma| * sum of
    count * m^(1-2g) * (T/Delta)^(g-1) over the spectrum, at ``bits``."""
    with mpmath.workprec(bits):
        total = mpmath.mpf(0)
        for (count, m, _), d in zip(spectrum.terms, deltas):
            ratio = (T / d) ** (genus - 1) if genus else d / T
            total += count * mpmath.mpf(m) ** (1 - 2 * genus) * ratio
        return gamma_order * total


@lru_cache(maxsize=None)
def decimal_eps(bits):
    """eps = 10^(1-P) / 2, the rounding error of the P = ceil(bits log10 2) + 1
    digits of the float layer at ``bits``; ceil(bits log10 2) is the least k
    with 10^k >= 2^bits."""
    k = bits * 3 // 10
    while 10**k < 2**bits:
        k += 1
    return Fraction(1, 2 * 10**k)


def float_layer_bounds(spectrum, genus, bits):
    """The relative error bounds stated by ``formula._products`` and
    ``formula._kernel`` at ``bits``: 2R eps for each Delta and
    (2R |g - 1| + N + 7) eps for the kernel, with the spectrum's R numerators
    per term and N terms."""
    eps = decimal_eps(bits)
    R, N = spectrum.roots, len(spectrum.terms)
    return 2 * R * eps, (2 * R * abs(genus - 1) + N + 7) * eps


def as_fraction(x):
    """The exact value of an int, a Decimal, a Fraction or an mpf."""
    if isinstance(x, (int, Decimal, Fraction)):
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * man * Fraction(2) ** exp


@lru_cache(maxsize=None)
def _cospi_sinpi(z, bits):
    with mpmath.workprec(bits + 64):
        return mpmath.cospi_sinpi(mpmath.mpf(z.numerator) / z.denominator)


def four_sin_sq_reference(x, bits):
    """4 sin^2(pi x) for a Fraction ``x``, from mpmath's sinpi and cospi at
    bits + 64, within 2^-(bits+60), relative.  Folded to y in (0, 1/2], it
    is 4 sin^2(pi y) or, past y = 1/4, 4 cos^2(pi (1/2 - y)): the arguments
    y and 1/2 - y share one evaluation."""
    y = x % 1
    y = min(y, 1 - y)
    z = min(y, Fraction(1, 2) - y)
    cos, sin = _cospi_sinpi(z, bits)
    with mpmath.workprec(bits + 64):
        return 4 * (sin if z == y else cos) ** 2


def sine_within_its_bound(value, x, bits):
    """Whether ``value``, a sine table's 4 sin^2(pi x) at ``bits``, is within
    the stated eps + 2^-(bits+7) of the reference, relative, allowing for the
    reference's own error."""
    bound = decimal_eps(bits) + Fraction(1, 2 ** (bits + 7)) + Fraction(1, 2 ** (bits + 60))
    return relative_error(value, four_sin_sq_reference(x, bits)) <= bound


def integrality_tolerance(value):
    """max(1e-9 |value|, 1e-30), capped at 0.4: a residual that a certified
    value is expected to stay under, as the acceptance tests check.

    Values of 64 bits or more are past the cap; they are not converted to
    float, which overflows from 2^1024 on.
    """
    if abs(value).bit_length() >= 64:
        return 0.4
    return min(max(1e-9 * abs(value), 1e-30), 0.4)


def relative_error(got, want):
    """|got - want| / |want|, exactly."""
    want = as_fraction(want)
    return abs(as_fraction(got) - want) / abs(want)


def distance(x, y):
    """|x - y|, exactly."""
    return abs(as_fraction(x) - as_fraction(y))
