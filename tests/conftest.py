"""Shared helpers: eigenvalue-multiset comparison, matrix stacks over s and SystemParams strategies.

Hypothesis runs derandomized and without its example database, so every
checkout and every run draws the same examples.
"""

import itertools
from dataclasses import replace

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from cavitymagnons.model import SystemParams, build_adiabatic_model, build_full_hamiltonian

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

rates = st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_subnormal=False)
couplings = st.floats(min_value=0.0, max_value=3.0, allow_nan=False, allow_subnormal=False)
kappas = st.floats(min_value=0.05, max_value=5.0, allow_nan=False, allow_subnormal=False)
splittings = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False, allow_subnormal=False)


def system_params_strategy():
    return st.builds(
        SystemParams,
        kappa=kappas,
        gamma1=rates,
        gamma2=rates,
        g1=couplings,
        g2=couplings,
        s=splittings,
    )


def best_match_errors(values, references) -> np.ndarray:
    """Per-element |value - reference| under the permutation minimizing the total.

    Robust way to compare eigenvalue multisets when sorting is ambiguous
    (coinciding real or imaginary parts).
    """
    values = np.asarray(values, dtype=complex)
    references = np.asarray(references, dtype=complex)
    assert values.shape == references.shape
    k = values.size
    best = None
    for perm in itertools.permutations(range(k)):
        errors = np.abs(values[list(perm)] - references)
        if best is None or errors.sum() < best.sum():
            best = errors
    return best


def matrix_stack(params, s, adiabatic=False) -> np.ndarray:
    """H(s=0) + s[..., None, None] * dH/ds, the (*s.shape, k, k) stack of the model over s.

    The magnons sit at +s and -s, so dH/ds is diag(0, 1, -1) for the full matrix
    and diag(1, -1) for the reduced one; params.s is ignored.  Each matrix equals
    the one built at its s up to the sign of zero entries.
    """
    at_zero = replace(params, s=0.0)
    if adiabatic:
        h, splitting = build_adiabatic_model(at_zero).matrix, np.diag([1.0, -1.0])
    else:
        h, splitting = build_full_hamiltonian(at_zero), np.diag([0.0, 1.0, -1.0])
    return h + np.asarray(s, dtype=float)[..., None, None] * splitting
