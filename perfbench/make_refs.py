"""Regenerate ``refs.json``, the stored references of the benchmark.

Run from the repository root:  python3 perfbench/make_refs.py

Each stored value is computed through the library at a precision of at
least log2|value| + 64 bits and again 128 bits higher; the two must agree.
On top of that:

* Sp(2r) at level l must equal its level-rank partner Sp(2l) at level r;
* at genus 1 a simply connected group gives |P_l|, the number of level
  weights, which for types A and C of rank r is binomial(r + l, r);
* torus orders of types A, B and D must equal the closed form
  (l+h)^s * f * nu from the standard tables below.

Any disagreement aborts without writing the file.
"""

from __future__ import annotations

import json
import os
import sys
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from verlinde.formula import n_sp, torus_order_oracle_certified, verlinde_sc  # noqa: E402
from verlinde.rootsys import root_system  # noqa: E402

import workloads as W  # noqa: E402

SECOND_OFFSET = 128

# (dual Coxeter number h, centre order f, nu) for rank s.
CLOSED_FORM = {
    "A": lambda s: (s + 1, s + 1, 1),
    "B": lambda s: (2 * s - 1, 2, 2),
    "D": lambda s: (2 * s - 2, 4, 1),
}


def stable_value(evaluate, label: str) -> int:
    """The value of ``evaluate(bits)`` at two precisions above its size."""
    estimate = evaluate(192)
    bits = W.sized_precision(estimate)
    first = evaluate(bits)
    second = evaluate(bits + SECOND_OFFSET)
    if first != second:
        raise SystemExit(f"{label}: {first} at {bits} bits != {second} at {bits + SECOND_OFFSET}")
    return first


def needed_keys():
    sp, sc, torus = set(), set(), set()
    b = W.SUITE_DEFAULTS
    for r in range(1, b["sp_max"] + 1):
        for s in range(1, b["sp_max"] + 1):
            for g in range(1, b["sp_g_max"] + 1):
                sp.add((r, s, g))
    for family, lo in W.MIN_RANK.items():
        for rank in range(lo, b["rank_max"] + 1):
            for level in range(b["level_max"] + 1):
                torus.add((family, rank, level))
    for entry in W.DENSE_POOL:
        for g in W.DENSE_GENERA:
            if entry[0] == "sp":
                sp.add((entry[1], entry[2], g))
            else:
                sc.add((*entry[1:], g))
    for g in range(1, W.SWEEP_GENUS_MAX + 1):
        sp.add((2, 3, g))
        sc.add(("A", 2, 6, g))
    sp |= {(level, r, g) for r, level, g in sp}  # every level-rank partner
    return sorted(sp), sorted(sc), sorted(torus)


def main() -> int:
    sp_keys, sc_keys, torus_keys = needed_keys()
    refs = {"sp": {}, "sc": {}, "torus": {}}

    for r, level, g in sp_keys:
        value = stable_value(lambda bits: n_sp(r, level, g, bits).value, f"Sp({2 * r}) l={level} g={g}")
        if g == 1 and value != comb(r + level, r):
            raise SystemExit(f"Sp({2 * r}) l={level} g=1: {value} != |P_l|")
        refs["sp"][W.sp_key(r, level, g)] = str(value)
    for r, level, g in sp_keys:
        if refs["sp"][W.sp_key(level, r, g)] != refs["sp"][W.sp_key(r, level, g)]:
            raise SystemExit(f"level-rank symmetry fails for Sp({2 * r}) l={level} g={g}")

    for family, rank, level, g in sc_keys:
        rs = root_system(family, rank)
        value = stable_value(lambda bits: verlinde_sc(rs, level, g, bits).value,
                             f"{family}{rank} l={level} g={g}")
        if g == 1 and family in ("A", "C") and value != comb(rank + level, rank):
            raise SystemExit(f"{family}{rank} l={level} g=1: {value} != |P_l|")
        refs["sc"][W.sc_key(family, rank, level, g)] = str(value)

    for family, rank, level in torus_keys:
        rs = root_system(family, rank)
        value = stable_value(
            lambda bits: torus_order_oracle_certified(rs, level, bits)[0],
            f"torus {family}{rank} l={level}",
        )
        if family in CLOSED_FORM:
            h, f, nu = CLOSED_FORM[family](rank)
            if value != (level + h) ** rank * f * nu:
                raise SystemExit(f"torus {family}{rank} l={level}: {value} != closed form")
        refs["torus"][W.torus_key(family, rank, level)] = str(value)

    with open(W.REFS_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {W.REFS_PATH}: {sum(len(v) for v in refs.values())} values")
    return 0


if __name__ == "__main__":
    sys.exit(main())
