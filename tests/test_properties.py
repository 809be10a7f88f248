"""Property tests over random (family, rank, level, genus) in small bounds.

The bounds keep every example well under a second, so that the whole file
stays a small part of the Tier-1 run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from verlinde.formula import (
    n_so,
    n_sp,
    torus_order,
    torus_order_oracle_certified,
    verlinde_sc,
)
from verlinde.rootsys import MIN_RANK, root_system
from verlinde.so_oracle import n_so_oracle
from verlinde.weights import enumerate_level_weights

SMALL = settings(max_examples=25, deadline=None)


def groups(families="ABCD", max_rank=5):
    return st.sampled_from(families).flatmap(
        lambda f: st.tuples(st.just(f), st.integers(MIN_RANK[f], max_rank))
    )


@SMALL
@given(group=groups(), level=st.integers(0, 5))
def test_genus_one_counts_level_weights(group, level):
    rs = root_system(*group)
    assert verlinde_sc(rs, level, 1).value == len(enumerate_level_weights(rs, level))


@SMALL
@given(group=groups(), genus=st.integers(1, 8))
def test_level_zero_gives_one(group, genus):
    assert verlinde_sc(root_system(*group), 0, genus).value == 1


@SMALL
@given(group=groups(), level=st.integers(0, 5))
def test_sum_of_delta_is_the_closed_form_torus_order(group, level):
    rs = root_system(*group)
    assert torus_order_oracle_certified(rs, level)[0] == torus_order(rs, level)


@SMALL
@given(r=st.integers(1, 5), s=st.integers(1, 5), genus=st.integers(1, 5))
def test_sp_level_rank_symmetry(r, s, genus):
    assert n_sp(r, s, genus).value == n_sp(s, r, genus).value


@SMALL
@given(r=st.integers(5, 14), genus=st.integers(1, 8))
def test_engine_equals_oracle(r, genus):
    assert n_so(r, genus).value == n_so_oracle(r, genus).value == r**genus
