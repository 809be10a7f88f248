"""Verlinde dimension numbers with certified integer results.

For a simply connected, almost simple group with root system R, rank s and
dual Coxeter number h, the dimension of the space of conformal blocks at
level l on a genus-g curve is the finite sum

    N_l = sum over lambda in P_l of (|T_l| / Delta(lambda))^(g-1),

where P_l is the set of dominant weights with (lambda | theta) <= l,

    Delta(lambda) = prod over positive roots alpha of
                    4 sin^2( pi (alpha | lambda + rho) / (l + h) ),

and |T_l| = (l+h)^s * f * nu is the order of the finite torus subgroup
behind the sum, in closed form for every family: f is the center order and
nu = |Q / Q_long| the index of the long-root lattice in the root lattice
(Beauville, "Conformal blocks, fusion rules and the Verlinde formula",
1996), which is 1 for A and D, 2 for B and 2^(s-1) for C_s.  Every sum
shape is one formula,

    N = |Gamma| * sum over orbits of m^(1-2g) * (T / Delta)^(g-1),

over the Gamma-orbits (of size m) of the weights trivial on the center
subgroup Gamma; the simply connected group is the case Gamma = 1.  For a
product of factors, Delta runs over the factors' sine arguments together
and T is the product of their torus orders.  At g = 0, T = 1, Gamma = 1 the
formula is the sum of Delta over P_l, which equals |T_l| (S-matrix
unitarity): the torus-order oracle, which only cross-checks the closed form.

The exact pass, ``_terms``, is integer arithmetic on the weight lattice.  A
weight with marks n has sine arguments j / D with integer numerators
``j = sum_i (n_i + 1) M[a][i]`` from the root system's pairing matrix
``M[a][i] = 2 (alpha | omega_i)``, and D = 2(l+h) (for a product, the lcm of
its factors' D).  For a weight in P_l each j lies in 1..D-1, and as
4 sin^2(pi x) = 4 sin^2(pi (1 - x)), it is reduced to min(j, D - j).
Delta is invariant under the center and the diagram automorphisms, so many
weights share their multiset of numerators: the terms are merged into a
spectrum of distinct (orbit size, multiset of numerators) with a count each.
A multiset is keyed by its sorted numerators or, where each term has more
numerators than there are values, R > D/2, by the count of each value,
packed into one int (:class:`Spectrum`): Sp(12) at level 6 has R = 36 and
D/2 = 13.  Its Delta then costs one multiply per value, not one per numerator
(``_products``).

The exact pass is the one recursion over the mark tuples in lexicographic
order, ``weights._walk``, which also lists the weights of the ``weights``
command.  Each node adds its pairing column once to its parent's
numerators, starting from rho (the pairing rows' sums).  The R numerators
travel as one int, one unsigned field of f bits per root, f the least
width that holds D - 1 (``_field_width``): every pairing is >= 0, so no
field of any node exceeds a numerator of a weight of P_l, at most D - 1,
and no add carries.  So a weight costs one int add, not a vector add or
one dot product per root, and each kept leaf unpacks its fields once.
Under every spec the walk visits only the least member of each center
orbit, on which Delta is constant (for type A the necklaces, about
|P_l| / (s+1) weights), and merges it into the spectrum at once; P_l is
never stored.
A simply connected group counts it with its orbit size, a quotient once,
with its Gamma-orbit size as m.

The float layer (``_products``, ``_kernel`` and :func:`delta`) is decimal
arithmetic in the context of ``numeric._context`` at ``bits`` working bits,
each operation correctly rounded (Cowlishaw, *General Decimal Arithmetic
Specification*) within eps <= 2^-(bits+1), relative: at least as accurate as
an mpf operation at ``bits``.  ``_products`` and ``_kernel`` state their
error bounds, and certification proves the integer from the latter's K.

Each public sum, ``verlinde_sc``, ``verlinde_quotient`` and
``verlinde_product_quotient`` (so ``n_so`` and ``n_sp`` too), is one call
to ``_verlinde``, which refuses a bad request (``numeric.check_request``)
before any enumeration, names the group (``_label``; ``n_sp`` renames it)
and records one factor's level as an int, a product's as a tuple.

Only the exponent depends on the genus, so the rest is built once per key
and process, in one entry of a bounded :func:`functools.lru_cache`
(``_sum_of``), keyed by the (GroupType, level) of each factor and the center
subgroup.  An entry (:class:`_Sum`) holds the factors' root systems, the
spectrum, T, |Gamma| and the term count; the Delta of each term at the last
two working precisions asked (one certification reads at most two), from
the sine tables of its factors, one per (denominator, working precision)
(``_products``); and the memo of the recurrence below.  All of them are
built for their key and evicted with it.

``_kernel``, the one floating-point loop, then only raises T / Delta to the
power g - 1, multiplies and adds, with m^(1-2g) computed once per distinct
orbit size; the result is certified once per Verlinde number
(``_certified``).  The torus-order oracle and the Verlinde pass of a simply
connected group at one precision share one Delta tuple.

Past the first 2K genera of a spectrum of K <= ``RECURRENCE_MAX_TERMS``
terms, no sum is evaluated.  N_g is a sum of K geometric sequences in g,
with ratios T / (m^2 Delta), so (N_g) satisfies a linear recurrence of
order L <= K with rational coefficients (Coste and Gannon, Phys. Lett. B
323, 1994), which Berlekamp-Massey finds exactly from N_1..N_2K (Massey,
IEEE Trans. Inf. Theory 15, 1969), fraction-free, in ints.  Each of those
2K values is certified by the kernel from ``DEFAULT_PRECISION`` once per
entry, by the first of the record of its genus at that precision and the
seed of the memo, and the other reads it.  Every later value is one exact
integer step, q N_n = sum of a_i N_(n-i), kept in the entry's memo of at
most ``MAX_BITS`` bits of values.  The memo is seeded and extended under
the entry's lock, so threads that ask for values of one key at once get the
values one thread would.  A genus whose sequence would pass ``MAX_BITS``
takes the kernel, as does a genus g <= 2K at another precision and every
key of more terms.  A value from the recurrence is exact: its record has
residual 0.0 and the caller's precision as ``precision_bits``.
"""

from __future__ import annotations

import math
import operator
import struct
import sys
import threading
from array import array
from decimal import MAX_EMAX, Context, Decimal, localcontext
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .numeric import (
    DEFAULT_PRECISION,
    MAX_BITS,
    IntegralityError,
    VerlindeResult,
    _context,
    _sine_table,
    certify_integer,
    check_precision,
    check_request,
)
from .rootsys import (
    RootSystem,
    Vector,
    build_root_system,
    marks,
    root_system,
)
from .weights import _SO_QUOTIENT, CenterSpec, _mark_bounds, _walk

__all__ = [
    "DynkinIndices",
    "DYNKIN_INDEX",
    "VerlindeResult",
    "delta",
    "torus_order",
    "torus_order_oracle_certified",
    "verlinde_sc",
    "verlinde_quotient",
    "verlinde_product_quotient",
    "n_so",
    "n_sp",
    "theta_dim",
]


class Spectrum(NamedTuple):
    """The exact terms of a Verlinde sum: ``(count, orbit size, key)`` for
    each distinct term, whose ``roots`` sine arguments times
    ``denominator`` D are its numerators, reduced to 1 <= j <= D/2.

    The key is the term's multiset of numerators.  With ``width`` 0 it is
    the sorted numerators.  Otherwise it is one int that holds the count of
    each numerator j in its ``width`` bits from bit ``width * j``: the
    layout of a spectrum with more numerators per term than values, R > D/2
    (see ``_layout``)."""

    denominator: int
    roots: int
    width: int
    terms: Tuple[Tuple[int, int, Union[int, Tuple[int, ...]]], ...]


# Keys whose sums are kept per process (see ``_sum_of``).  Calls that repeat
# a key come close together (a sweep over genera, the suite's genus loops and
# level-rank pairs), and one spectrum holds up to |P_l| terms, so a few dozen
# entries serve them while capping memory.  A term takes about 125 bytes
# when it counts numerators below D = 64, and 8 bytes more per numerator
# when they are sorted (tracemalloc, Python 3.11): 0.9 MiB for the 7,866
# terms of A10 at level 10, 11 MiB for the 92,349 of C10 at level 10, and
# 2.8 MiB for the 22,650 of A1 x A1 at levels 299 and 300.
SPECTRUM_CACHE_SIZE = 32
# Spectra of at most this many terms take each genus g > 2K from the
# recurrence of N_1..N_2K (see ``_recurrent_value``).  Seeding costs 2K certified
# sums and the fit: with its spectrum built, SO(60) (K = 16) at genus 33 takes
# 2.3 ms, 0.04 ms of it the fit, against 0.8 ms for its one sum at genus 33,
# which takes a second pass (Python 3.11 on a shared 2-vCPU VM).
RECURRENCE_MAX_TERMS = 16
# The array typecode of an unsigned field of each width: the slots of a counts
# key (``Spectrum.width``) and the numerators that the exact pass packs.
_FIELD_TYPES = {8: "B", 16: "H", 32: "I"}


def _field_width(n: int) -> int:
    """The least width of ``_FIELD_TYPES``, 8, 16 or 32 bits, whose unsigned
    field holds n: a count of R numerators, or a numerator below D."""
    return 8 if n < 1 << 8 else 16 if n < 1 << 16 else 32


class DynkinIndices(NamedTuple):
    """Dynkin indices of the standard representations, used to pick levels.

    The orthogonal entries are forced by the determinant-bundle bookkeeping
    for SO(r); the symplectic entry is the standard tabulated value,
    recorded here as an external fact.
    """

    so_standard_r_ge_5: int = 2
    so3: int = 4
    so4: Tuple[int, int] = (2, 2)
    sp_standard: int = 1


DYNKIN_INDEX = DynkinIndices()


def delta(
    rs: RootSystem, level: int, lam: Vector, precision: int = DEFAULT_PRECISION
) -> Decimal:
    """Delta(lambda): the positive-root product of 4 sin^2 factors.

    Strictly positive for every weight in P_l; a weight outside P_l (a
    negative mark, or a level sum comark_i n_i above l, the bound of the
    walk's ``weights._mark_bounds``) raises ``ValueError``.  The sine
    arguments are computed exactly, from the marks of ``lam``, before any
    floating point enters, as in ``_terms``; the product is that of the
    float layer (``_products``) at ``precision``, keyed as the spectrum
    keys it, so it equals the engine's Delta of the weight's term.  The
    Decimal holds P digits (``numeric._context``); arithmetic on it rounds
    in the caller's decimal context.
    """
    n = marks(rs, lam)
    if min(n) < 0 or sum(map(operator.mul, rs.comarks, n)) > level:
        raise ValueError(f"{lam} is not a level-{level} weight")
    check_precision(precision)
    D = 2 * (level + rs.dual_coxeter)
    js = [sum((x + 1) * m for x, m in zip(n, row)) for row in rs.pairing_matrix]
    width, key = _layout(len(js), D)
    spectrum = Spectrum(D, len(js), width, ((1, 1, key(js)),))
    return _products(spectrum, ((rs, level),), precision)[0]


def torus_order(rs: RootSystem, level: int) -> int:
    """|T_l| = (l+h)^s * f * nu from the closed form, for every family."""
    _mark_bounds(((rs, level),))  # refuses a negative level
    return (level + rs.dual_coxeter) ** rs.rank * rs.center_order * rs.nu


def _layout(roots: int, D: int):
    """``(width, key)`` of a spectrum of R = ``roots`` numerators per term at
    denominator D: ``key(js)`` is a term's key from its numerators js,
    0 < j < D, reduced to min(j, D - j).

    ``width`` is 0 (sorted numerators) where R <= D/2, as a count vector of
    D/2 + 1 slots would be longer than the list it replaces, else the
    ``_field_width`` of a count of R, and the key is the sum of
    1 << width * j, one C-level sum over a table by j."""
    if roots <= D // 2:
        reduced = [min(j, D - j) for j in range(D)].__getitem__
        return 0, lambda js: tuple(sorted(map(reduced, js)))
    width = _field_width(roots)
    slots = [1 << width * min(j, D - j) for j in range(D)].__getitem__
    return width, lambda js: sum(map(slots, js))


def _terms(factors, spec: CenterSpec) -> Spectrum:
    """The exact pass: the merged spectrum of the Gamma-orbits of the
    Gamma-trivial weights of ``factors``, pairs ``(rs, level)``.

    The walk (``weights._walk``) visits only the least members of the center
    orbits of each factor and carries each weight's R numerators packed into
    one int, one unsigned field of f bits per root, f the ``_field_width``
    of D - 1.  Every pairing is >= 0, so each field of each node is at most
    a numerator of a weight of P_l, which is at most D - 1, and no add
    carries into the next field.  Column i of a factor's pairing
    matrix, scaled by D / (2(l+h)), is packed in C by one ``struct`` call
    (native, as ``array`` reads it) and shifted to that factor's fields; the
    walk starts from their sum, rho, whose numerators are the pairing rows'
    sums.  Each kept leaf unpacks its int (``int.to_bytes``, read as
    bytes or as an array of f-bit fields) and merges into its term at once,
    keyed by its orbit size and its numerators, reduced to min(j, D - j):
    sorted, or, where the spectrum counts them, as the sum of
    1 << width * j over them (``_layout``).
    A leaf counts the product of the factors' orbit sizes under the trivial
    spec; under a quotient, a Gamma-trivial leaf counts once, with its
    Gamma-orbit size as m: the terms, their order and their counts are
    those of the walk over all of P_l.
    """
    _mark_bounds(factors)  # refuses an empty list and a negative level before D
    shifted = [2 * (lvl + rs.dual_coxeter) for rs, lvl in factors]
    D = math.lcm(*shifted)
    roots = sum(len(rs.pairing_matrix) for rs, _ in factors)
    field = _field_width(D - 1)
    code, size, order = _FIELD_TYPES[field], field // 8, sys.byteorder
    columns = []
    offset = 0  # the fields before this factor's
    for (rs, _), d in zip(factors, shifted):
        M = rs.pairing_matrix
        scale = D // d
        pack = struct.Struct(f"{len(M)}{code}").pack  # native, as the array that unpacks
        columns += [int.from_bytes(pack(*(col if scale == 1 else map(scale.__mul__, col))),
                                   order) << field * offset for col in zip(*M)]
        offset += len(M)
    width, numerators = _layout(roots, D)
    counts = {}
    length = size * roots

    def merge(js, m, weight, parts):
        js = js.to_bytes(length, order)
        key = (m, numerators(js if size == 1 else array(code, js)))
        counts[key] = counts.get(key, 0) + weight

    _walk(factors, spec, merge, columns=columns)
    return Spectrum(D, roots, width, tuple((c, m, js) for (m, js), c in counts.items()))


class _Sum:
    """The genus-independent part of the Verlinde sum of ``key``,
    ``(factors, spec)``: the ``(GroupType, level)`` of each factor and the
    center subgroup.

    It holds the factors as ``(RootSystem, level)``, the spectrum, T (the
    product of the factors' closed-form torus orders), |Gamma|, the count of
    weights or orbits summed, and ``deltas(bits)``: the Delta of each term at
    ``bits``, kept for the last two precisions, as one certification reads
    at most two.  ``seed`` holds the certified sums of genera g <= 2K (see
    ``_seed_sum``).  The memo of the recurrence (see ``_recurrent_value``), q,
    the integers a_i of q N_n = sum of a_i N_(n-i) and the values N_1..N_n
    so far, of ``memo_bits`` bits in all, is ``None`` until first asked for,
    and is only read and written under ``lock``.
    """

    def __init__(self, key):
        factors = tuple((build_root_system(gt), lvl) for gt, lvl in key[0])
        spectrum = _terms(factors, key[1])
        self.factors, self.spectrum = factors, spectrum
        self.T = math.prod(torus_order(rs, lvl) for rs, lvl in factors)
        self.gamma_order = 1 if key[1] is CenterSpec.TRIVIAL else 2
        self.term_count = sum(count for count, _, _ in spectrum.terms)
        self.deltas = lru_cache(maxsize=2)(lambda bits: _products(spectrum, factors, bits))
        self.lock = threading.Lock()
        self.q = self.coefficients = self.memo = None
        self.memo_bits = 0
        self.seed = {}


# The :class:`_Sum` of each key, built once per key and process.
_sum_of = lru_cache(maxsize=SPECTRUM_CACHE_SIZE)(_Sum)


def _products(spectrum: Spectrum, factors, bits: int) -> Tuple[Decimal, ...]:
    """The product of 4 sin^2(pi j / D) over each term's R numerators j, in
    the decimal context of ``bits``, for the spectrum of ``factors``, pairs
    ``(rs, level)``.

    Each sine is read from the table of one factor at ``bits``: a factor's
    numerators are multiples of D / d, d = 2(l+h), so j / D = (j d / D) / d.
    Types A and D are simply laced, so their pairings, and with them their
    numerators, are even: their table is that of d / 2, read at j d / 2D.
    A numerator of two factors is read from the later one's table.  Every
    table is within the bound of ``_sine_table`` whatever its denominator,
    and its values are rounded once into this context: R roundings, one
    per numerator of a term.

    Sorted numerators are multiplied out by ``math.prod``, R - 1 roundings.
    A term that counts its numerators (the count e_j of each value j,
    summing to R over its k distinct numerators) is the ``math.prod`` of
    s_j^e_j over every slot j = 0..D/2, one multiply per value, with no
    filter per term.  The powers come from one table per spectrum, s_j^e
    for e up to the largest count of j, each by one more multiply, and
    s_j^0 is an exact 1: a product by it rounds nothing, so each Delta
    takes k - 1 roundings, and s_j^e_j carries e_j - 1, R - k over the
    term.  Decimal's ``**`` is not used: it is within 2 eps per power only
    (see ``_kernel``).  In both layouts each
    Delta is within 2R eps <= R 2^-bits of the exact product of the tables'
    unrounded values, and within R eps of the exact product of their rounded
    ones, relative: R - 1 to first order, and one eps for the second-order
    terms.
    """
    D = spectrum.denominator
    sines = [None] * (D // 2 + 1)  # None where no factor has a numerator
    for rs, level in factors:
        n = (level + rs.dual_coxeter) * (1 if rs.family in "AD" else 2)  # its table's D
        sines[::D // n] = _sine_table(n, bits)
    width = spectrum.width
    with localcontext(_context(bits)):
        if not width:
            return tuple(math.prod(map(sines.__getitem__, js)) for _, _, js in spectrum.terms)
        size = width // 8 * len(sines)
        counts = [array(_FIELD_TYPES[width], key.to_bytes(size, "little"))
                  for _, _, key in spectrum.terms]
        if sys.byteorder == "big":  # the keys' bytes are little-endian
            for c in counts:
                c.byteswap()
        one = Decimal(1)
        powers = []  # powers[j][e] = s_j^e, e from 0 to the largest count of j
        for s, top in zip(sines, map(max, zip(*counts))):
            power = [one, s]
            for _ in range(top - 1):
                power.append(power[-1] * s)
            powers.append(power)
        return tuple(math.prod(map(list.__getitem__, powers, c)) for c in counts)


def _kernel(
    spectrum: Spectrum, deltas, T: int, genus: int, gamma_order: int, bits: int
) -> Decimal:
    """|Gamma| * sum of count * m^(1-2g) * (T/Delta)^(g-1) over the N terms
    of the spectrum, in the decimal context of ``bits``, from the Delta of
    each term at ``bits``: a Decimal of P digits, which certification rounds.

    Each operation is within eps, and a power with an integer exponent,
    taken with extra digits, within 2 eps.  The error of T/Delta, 2R eps,
    grows |g - 1|-fold in the power (at g = 0 the ratio is Delta / T); with
    m^(1-2g), two products, the sum of positive terms and |Gamma|, the
    result is within (2R |g - 1| + N + 7) eps of the exact kernel of the
    products of the table's sines, relative: one eps less to first order,
    and one eps for the second-order terms.  The tables' unrounded values,
    within 2^-(bits+8) of the sines (``numeric._sine_table``), add
    R |g - 1| 2^-(bits+8): to first order the result is within (R |g - 1|
    (1 + 2^-8) + (N + 6) / 2) 2^-bits of the exact sum.  Its K (``_error``),
    2R |g - 1| + N + 8, is over 1.99 times that, and covers the
    second-order terms while K 2^-bits <= 2^-8.
    """
    with localcontext(_context(bits)):
        T = Decimal(T)
        powers = {}  # m -> m^(1-2g); orbit sizes take few values
        total = Decimal(0)
        for (count, m, _), d in zip(spectrum.terms, deltas):
            power = powers.get(m)
            if power is None:
                power = powers[m] = Decimal(m) ** (1 - 2 * genus)
            # at g = 0 the power is Delta/T; inverting T/Delta would round twice
            ratio = (T / d) ** (genus - 1) if genus else d / T
            total += count * power * ratio
        return total * gamma_order


def _error(spectrum: Spectrum, genus: int) -> int:
    """The K of ``_kernel``'s bound (see there)."""
    return 2 * spectrum.roots * abs(genus - 1) + len(spectrum.terms) + 8


def torus_order_oracle_certified(
    rs: RootSystem, level: int, precision: int = DEFAULT_PRECISION
) -> Tuple[int, float]:
    """|T_l| as the sum of Delta over all of P_l (S-matrix unitarity): the
    certified integer and the rounding residual of the sum, from
    ``precision`` bits.  A cross-check of :func:`torus_order`."""
    check_precision(precision)  # a refused request enumerates nothing
    entry = _sum_of((((rs.group_type, level),), CenterSpec.TRIVIAL))
    value, residual, _ = _certified(entry, 0, precision)
    return value, residual


def _verlinde(factors, spec, genus, precision) -> VerlindeResult:
    """The certified Verlinde number of the weights of ``factors``, a tuple
    of ``(RootSystem, level)``, modulo ``spec``: from the recurrence of its
    spectrum where that serves the genus, else from the kernel."""
    check_request(genus, precision)
    entry = _sum_of((tuple((rs.group_type, lvl) for rs, lvl in factors), spec))
    K = len(entry.spectrum.terms)
    small = K <= RECURRENCE_MAX_TERMS
    value = _recurrent_value(entry, genus) if small and genus > 2 * K else None
    if value is not None:
        residual, bits = 0.0, precision
    elif small and genus <= 2 * K and precision == DEFAULT_PRECISION:
        value, residual, bits = _seed_sum(entry, genus)
    else:
        value, residual, bits = _certified(entry, genus, precision)
    return VerlindeResult(
        value=value,
        residual=residual,
        precision_bits=bits,
        term_count=entry.term_count,
        group_label=_label(factors, spec),
        level=factors[0][1] if len(factors) == 1 else tuple(lvl for _, lvl in factors),
        genus=genus,
    )


def _label(factors, spec: CenterSpec) -> str:
    """The name of the group of ``factors`` modulo ``spec``."""
    if spec is CenterSpec.SO4_DIAGONAL:
        return "SO(4)"
    if len(factors) > 1:
        return " x ".join(str(rs.group_type) for rs, _ in factors)
    rs = factors[0][0]
    if spec is CenterSpec.TRIVIAL:
        return f"{rs.group_type} (simply connected)"
    if spec is CenterSpec.SO_EVEN:
        return f"SO({2 * rs.rank})"
    return f"SO({2 * rs.rank + 1})"  # SO_ODD, and SO3 of A1


def _certified(entry: _Sum, genus: int, precision: int):
    """``(N, residual, bits)`` of the kernel's sum of ``entry`` at ``genus``,
    certified from ``precision`` bits: with the entry's torus order T, or
    with T = 1 at g = 0, the torus-order oracle's sum of Delta (every
    Verlinde number has g >= 1)."""
    T = entry.T if genus else 1
    return certify_integer(
        lambda b: _kernel(entry.spectrum, entry.deltas(b), T, genus, entry.gamma_order, b),
        precision, _error(entry.spectrum, genus),
    )


def _seed_sum(entry: _Sum, genus: int):
    """``(N, residual, bits)`` of ``entry`` at a genus g <= 2K, certified
    from ``DEFAULT_PRECISION`` once per entry: the record of g and the seed
    of the recurrence read the same triple.  Two threads that race both
    certify it, to the same triple."""
    triple = entry.seed.get(genus)
    if triple is None:
        triple = entry.seed[genus] = _certified(entry, genus, DEFAULT_PRECISION)
    return triple


def _berlekamp_massey(sequence) -> Tuple[int, List[int]]:
    """The shortest linear recurrence of the int ``sequence`` over Q
    (Massey, IEEE Trans. Inf. Theory 15, 1969), fraction-free: ``(q, a)``
    with q s_n = a_1 s_(n-1) + ... + a_L s_(n-L) for every n >= L in it,
    q > 0 and gcd(q, a_1, ..., a_L) = 1.  A sequence of linear complexity L
    is determined by its first 2L terms.

    Each update C <- last C - d x^shift B of the connection polynomial C
    is Massey's C - (d / last) x^shift B times last, and C is divided by its
    content after it, so C is the rational fit's connection polynomial
    (C_0 = 1) times q, the lcm of its denominators: q = C_0, a_i = -C_i."""
    C, B = [1], [1]  # connection polynomials, now and at the last change
    L, shift, last = 0, 1, 1
    for n in range(len(sequence)):
        discrepancy = sum(C[i] * sequence[n - i] for i in range(L + 1))
        if discrepancy == 0:
            shift += 1
            continue
        previous = C
        C = [last * c for c in C] + [0] * (len(B) + shift - len(C))
        for i, b in enumerate(B):
            C[i + shift] -= discrepancy * b
        content = math.gcd(*C) if C[0] > 0 else -math.gcd(*C)
        C = [c // content for c in C]
        if 2 * L <= n:
            L, B, last, shift = n + 1 - L, previous, discrepancy, 1
        else:
            shift += 1
    return C[0], [-c for c in C[1:L + 1]]


def _recurrent_value(entry: _Sum, genus: int) -> Optional[int]:
    """N_genus from the memo of ``entry``, extended as far as ``genus``
    asks, or ``None`` where N_1..N_genus would hold more than ``MAX_BITS``
    bits.

    The first call seeds the memo with N_1..N_2K, each the certified sum of
    ``_seed_sum``, and the recurrence that Berlekamp-Massey fits on them,
    over the least denominator q; for K <= ``RECURRENCE_MAX_TERMS`` the seed
    is a few thousand bits at most.  Each later step is an exact division
    by q: a remainder can only be a fault, and raises
    :class:`IntegralityError`."""
    with entry.lock:
        if entry.memo is None:
            seed = [_seed_sum(entry, g)[0] for g in range(1, 2 * len(entry.spectrum.terms) + 1)]
            entry.q, entry.coefficients = _berlekamp_massey(seed)
            entry.memo, entry.memo_bits = seed, sum(v.bit_length() for v in seed)
        values, q = entry.memo, entry.q
        while len(values) < genus:
            total = sum(map(operator.mul, entry.coefficients, reversed(values)))
            value, remainder = divmod(total, q)
            if remainder:
                raw = Context(prec=30, Emax=MAX_EMAX).divide(total, q)
                raise IntegralityError(f"{raw:g}", remainder / q, DEFAULT_PRECISION,
                                       f"N_{len(values) + 1} of the recurrence is not an integer")
            bits = entry.memo_bits + value.bit_length()
            if bits > MAX_BITS:
                return None
            values.append(value)
            entry.memo_bits = bits
        return values[genus - 1]


def verlinde_sc(
    rs: RootSystem,
    level: int,
    genus: int,
    precision: int = DEFAULT_PRECISION,
) -> VerlindeResult:
    """Verlinde number of the simply connected group with root system ``rs``."""
    return _verlinde(((rs, level),), CenterSpec.TRIVIAL, genus, precision)


def verlinde_quotient(
    rs: RootSystem,
    level: int,
    spec: CenterSpec,
    genus: int,
    precision: int = DEFAULT_PRECISION,
) -> VerlindeResult:
    """Verlinde number of the center quotient G/Gamma.

    Sums |orbit|^(1-2g) * (|T_l| / Delta)^(g-1) over the Gamma-orbits of
    the Gamma-trivial level weights and multiplies by |Gamma|.  The choice
    of orbit representative is immaterial: Delta is Gamma-invariant.
    """
    return _verlinde(((rs, level),), spec, genus, precision)


def verlinde_product_quotient(
    factors: Sequence[Tuple[RootSystem, int]],
    spec: CenterSpec,
    genus: int,
    precision: int = DEFAULT_PRECISION,
) -> VerlindeResult:
    """Verlinde number of (G1 x G2 x ...)/Gamma with per-factor levels.

    The torus-to-Delta ratio of a weight tuple is the product of the
    per-factor ratios.  ``spec`` is any center subgroup that acts on the
    factors: for two, the diagonal order-2 center of SL(2) x SL(2) (the
    SO(4) case).  One factor gives the record of its own quotient.
    """
    return _verlinde(tuple(factors), spec, genus, precision)


def n_so(r: int, genus: int, precision: int = DEFAULT_PRECISION) -> VerlindeResult:
    """Dimension of the theta functions for SO(r): the determinant-bundle
    Verlinde number, at the level set by the standard representation's
    Dynkin index (4 for SO(3), (2,2) for SO(4), 2 for r >= 5), modulo the
    center subgroup whose quotient is SO(r) (``weights._SO_QUOTIENT``)."""
    if r < 3:
        raise ValueError(f"n_so requires r >= 3, got {r}")
    check_request(genus, precision)
    if r == 4:
        factors = [(root_system("A", 1), level) for level in DYNKIN_INDEX.so4]
        return verlinde_product_quotient(factors, CenterSpec.SO4_DIAGONAL, genus, precision)
    if r == 3:
        family, rank, level = "A", 1, DYNKIN_INDEX.so3
    else:
        family, rank, level = "B" if r % 2 else "D", r // 2, DYNKIN_INDEX.so_standard_r_ge_5
    return verlinde_quotient(
        root_system(family, rank), level, _SO_QUOTIENT[family], genus, precision)


def n_sp(
    r: int, level: int, genus: int, precision: int = DEFAULT_PRECISION
) -> VerlindeResult:
    """Verlinde number of the (simply connected) symplectic group Sp(2r),
    with the closed-form type-C torus order (nu = 2^(r-1))."""
    if r < 1:
        raise ValueError(f"n_sp requires r >= 1, got {r}")
    check_request(genus, precision)
    return verlinde_sc(root_system("C", r), level, genus, precision)._replace(
        group_label=f"Sp({2 * r})")


def theta_dim(r: int, genus: int) -> int:
    """Dimension r^g of the level-r theta linear system on the Jacobian side."""
    if r < 1:
        raise ValueError(f"theta_dim requires r >= 1, got {r}")
    check_request(genus, DEFAULT_PRECISION)
    return r**genus
