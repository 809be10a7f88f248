"""Case lists for the three benchmark workloads, each built from a seed.

A case is one ``verlinde`` command line plus the reference its output is
checked against.  References are sound and do not come from the code under
test at its default precision:

* SO(r) values are ``r**g``.
* Sp(2r) values at level l are stored values that agree with their
  level-rank partner Sp(2l) at level r.
* Every other stored value was computed at ``bits >= log2|value| + 64`` and
  agreed at two such precisions (see ``make_refs.py``).

``genus_sweep`` asks for a working precision sized to each value (see
:func:`sized_precision`), as a caller who needs a correct value must: at
the default 192 bits the package reports wrong values as certified for the
higher genera.  ``audit_cases`` gives the same cases at the default
precision, so that defect stays measurable (``run.py --audit``).

Within one workload, the seed changes the inputs only along directions that
leave the amount of work nearly unchanged (the genus of a dense case and the
order of the cases), so that runs with different seeds measure comparable
batches.
"""

from __future__ import annotations

import json
import os
import random

DEFAULT_SEED = 1
WORKLOADS = ("suite", "dense_level", "genus_sweep")
REFS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "refs.json")

# The suite's defaults: so r <= 12, g <= 5; sp r, s <= 4, g <= 4; unitarity
# rank <= 6, level <= 4, for families A B C D from their minimum ranks.
SUITE_DEFAULTS = dict(so_r_max=12, so_g_max=5, sp_max=4, sp_g_max=4, rank_max=6, level_max=4)
MIN_RANK = {"A": 1, "B": 2, "C": 1, "D": 3}

# dense_level: trivial centre, many level weights, few distinct sine arguments.
DENSE_POOL = (("sp", 6, 6), ("sp", 5, 5), ("sc", "A", 4, 10))
DENSE_GENERA = (2, 3, 4)

# genus_sweep: fixed groups at every genus 1..G.  The seed only shuffles.
SWEEP_GENUS_MAX = 60
DEFAULT_PRECISION = 192


def load_refs(path: str = REFS_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def sp_key(r: int, level: int, genus: int) -> str:
    return f"{r},{level},{genus}"


def sc_key(family: str, rank: int, level: int, genus: int) -> str:
    return f"{family},{rank},{level},{genus}"


def torus_key(family: str, rank: int, level: int) -> str:
    return f"{family},{rank},{level}"


def suite_entry_key(check_name: str, parameters: dict) -> str:
    return check_name + "|" + json.dumps(parameters, sort_keys=True)


def _value_case(argv, expect) -> dict:
    return {"argv": [str(a) for a in argv], "check": "value", "expect": str(expect)}


def so_case(r: int, genus: int) -> dict:
    return _value_case(["compute", "--group", "so", "--r", r, "--genus", genus], r**genus)


def sp_case(refs: dict, r: int, level: int, genus: int) -> dict:
    argv = ["compute", "--group", "sp", "--r", r, "--level", level, "--genus", genus]
    return _value_case(argv, refs["sp"][sp_key(r, level, genus)])


def sc_case(refs: dict, family: str, rank: int, level: int, genus: int) -> dict:
    argv = ["compute", "--group", "sc", "--type", family, "--rank", rank,
            "--level", level, "--genus", genus]
    return _value_case(argv, refs["sc"][sc_key(family, rank, level, genus)])


def suite_expectations(refs: dict, so_r_max, so_g_max, sp_max, sp_g_max,
                       rank_max, level_max) -> dict:
    """Every entry a suite run with these bounds must report, with its value."""
    expect = {}
    for r in range(3, so_r_max + 1):
        for g in range(1, so_g_max + 1):
            params = {"r": r, "genus": g}
            expect[suite_entry_key("so-identity", params)] = str(r**g)
            if r >= 5:
                expect[suite_entry_key("so-oracle-equivalence", params)] = str(r**g)
    for r in range(1, sp_max + 1):
        for s in range(r, sp_max + 1):
            for g in range(1, sp_g_max + 1):
                params = {"r": r, "s": s, "genus": g}
                expect[suite_entry_key("sp-duality-symmetry", params)] = (
                    refs["sp"][sp_key(r, s, g)]
                )
    for family, lo in MIN_RANK.items():
        for rank in range(lo, rank_max + 1):
            for level in range(level_max + 1):
                params = {"family": family, "rank": rank, "level": level}
                expect[suite_entry_key("torus-order-unitarity", params)] = (
                    refs["torus"][torus_key(family, rank, level)]
                )
    return expect


def _suite_case(refs: dict, bounds: dict, extra_argv=()) -> dict:
    return {
        "argv": ["suite", "--format", "json", *extra_argv],
        "check": "suite",
        "expect": suite_expectations(refs, **bounds),
    }


def suite(rng: random.Random, refs: dict) -> list:
    return [_suite_case(refs, SUITE_DEFAULTS)]


def dense_level(rng: random.Random, refs: dict) -> list:
    cases = []
    for entry in DENSE_POOL:
        genus = rng.choice(DENSE_GENERA)
        if entry[0] == "sp":
            cases.append(sp_case(refs, entry[1], entry[2], genus))
        else:
            cases.append(sc_case(refs, entry[1], entry[2], entry[3], genus))
    rng.shuffle(cases)
    return cases


def sized_precision(value) -> int:
    """log2|value| + 64 bits, rounded up to a multiple of 64 and never below
    the default: the precision at which the references were computed."""
    bits = abs(int(value)).bit_length() + 64
    return max(DEFAULT_PRECISION, -(-bits // 64) * 64)


def with_sized_precision(case: dict) -> dict:
    precision = sized_precision(case["expect"])
    return {**case, "argv": case["argv"] + ["--precision", str(precision)]}


def _sweep_cases(rng: random.Random, refs: dict) -> list:
    cases = []
    for g in range(1, SWEEP_GENUS_MAX + 1):
        cases.append(so_case(12, g))
        cases.append(sp_case(refs, 2, 3, g))
        cases.append(sc_case(refs, "A", 2, 6, g))
    rng.shuffle(cases)
    return cases


def genus_sweep(rng: random.Random, refs: dict) -> list:
    return [with_sized_precision(case) for case in _sweep_cases(rng, refs)]


def audit_cases(seed: int, refs: dict) -> list:
    """The genus_sweep cases at the default precision."""
    return _sweep_cases(random.Random(f"genus_sweep:{seed}"), refs)


_CASE_LISTS = {
    "suite": suite,
    "dense_level": dense_level,
    "genus_sweep": genus_sweep,
}


def build_cases(workload: str, seed: int, refs: dict) -> list:
    return _CASE_LISTS[workload](random.Random(f"{workload}:{seed}"), refs)


def smoke_cases(workload: str, refs: dict) -> list:
    """One small case per workload, exercising the same commands and layers."""
    if workload == "suite":
        bounds = dict(so_r_max=5, so_g_max=2, sp_max=2, sp_g_max=2, rank_max=2, level_max=1)
        extra = ["--r-max", "5", "--genus-max", "2", "--sp-max", "2", "--sp-genus-max", "2",
                 "--unitarity-rank-max", "2", "--unitarity-level-max", "1"]
        return [_suite_case(refs, bounds, extra)]
    if workload == "dense_level":
        return [sp_case(refs, 3, 2, 2)]
    return [with_sized_precision(case)
            for case in (so_case(12, 30), sp_case(refs, 2, 3, 30), sc_case(refs, "A", 2, 6, 30))]
