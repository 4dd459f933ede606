"""Metamorphic soundness of the algiso and mcc solvers.

Two relations the paper's contract implies, checked over fields the
acceptance criteria do not sample:

- a planted pair (B a random group image of A) is never NotIsomorphic;
- the gates are invariants of the group action, so replacing the first input
  of a pair by a random group image keeps a Failure at the same stage.  Only
  the stages whose breakdown on the second input is a certified mismatch
  take part: algiso steps 1-5 and mcc steps 1-2.

Random inputs over a large field stop at the hull gate, so the pairs are
built from `conftest.deep_slices`, which pass steps 1-2 and reach the
spectral stages.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import deep_slices
from tiso.gf import field_create
from tiso.matgf import random_invertible
from tiso.solvers import solve
from tiso.tensor import (act_algebra, act_code_conj, reassemble, sample_tensor,
                         slices)

DIRECTION = {"algiso": "horizontal", "mcc": "frontal"}
# stages where the second input's breakdown is NotIsomorphic, so the first
# input's breakdown there depends on the first input alone
CERTIFIED_STAGES = {"algiso": ("step1", "step2", "step3", "step4", "step5"),
                    "mcc": ("step1", "step2")}


def group_image(problem, A, rng):
    n = A.dims[0]
    if problem == "algiso":
        return act_algebra(A, random_invertible(A.field, n, rng))
    return act_code_conj(A, random_invertible(A.field, n, rng),
                         random_invertible(A.field, n, rng))


def deep_tensor(problem, field, n, rng):
    return reassemble(field, deep_slices(field, n, rng), DIRECTION[problem])


@pytest.mark.parametrize("problem", ["algiso", "mcc"])
@pytest.mark.parametrize("pm", [(33554393, 1), ((1 << 31) - 1, 1), (2, 8), (3, 5)],
                         ids=["GF(33554393)", "GF(2^31-1)", "GF(2^8)", "GF(3^5)"])
@settings(max_examples=8, deadline=None)
@given(n=st.integers(3, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_planted_pair_is_never_not_isomorphic(problem, pm, n, seed):
    field = field_create(*pm)
    rng = np.random.default_rng(seed)
    A = deep_tensor(problem, field, n, rng)
    B = group_image(problem, A, rng)
    verdict, _ = solve(problem, A, B, rng=rng)
    assert verdict.kind != "NotIsomorphic"


def first_input(problem, field, n, rng, i):
    """Every third draw uniform, every third deep, every third with a
    dependent slice (so the slice code is not full)."""
    if i % 3 == 0:
        return sample_tensor(field, "t3", (n, n, n), rng)
    if i % 3 == 1:
        return deep_tensor(problem, field, n, rng)
    mats = slices(sample_tensor(field, "t3", (n, n, n), rng), DIRECTION[problem])
    mats[-1] = mats[0] + mats[1]
    return reassemble(field, mats, DIRECTION[problem])


@pytest.mark.parametrize("problem", ["algiso", "mcc"])
@pytest.mark.parametrize("pm", [(3, 1), (5, 1), (2, 8), (33554393, 1)],
                         ids=["GF(3)", "GF(5)", "GF(2^8)", "GF(33554393)"])
def test_failure_stage_is_invariant_under_the_group_action(problem, pm):
    field = field_create(*pm)
    rng = np.random.default_rng(sum(pm))
    n = 5
    stages = set()
    for i in range(30):
        A = first_input(problem, field, n, rng, i)
        # a deep B passes steps 1-2, so A's later gates are reached
        B = deep_tensor(problem, field, n, rng)
        verdict, _ = solve(problem, A, B, rng=i)
        if verdict.kind != "Failure" or verdict.stage not in CERTIFIED_STAGES[problem]:
            continue
        moved, _ = solve(problem, group_image(problem, A, rng), B, rng=i)
        assert (moved.kind, moved.stage) == ("Failure", verdict.stage), i
        stages.add(verdict.stage)
    assert {"step1", "step2"} <= stages
    if problem == "algiso":
        assert stages & {"step3", "step4", "step5"}
