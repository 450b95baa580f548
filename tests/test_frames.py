"""Verdicts do not depend on the frame: relabelling the parties (each label
moving with its qubit) and sigma_z on any parties leave every cut spectrum,
every single-party pair verdict and classify's exit code as they were.

A permutation maps the GHZ basis onto itself, and sigma_z on one party swaps
lambda_j^+ with lambda_j^- on every pair j, which leaves each lambda_j and
delta = |lambda_0^+ - lambda_0^-| unchanged.  sigma_x is left out: it moves
pair 0's asymmetry to another pair, and the coefficient rule, which reads
only pair 0, then changes its verdicts; that waits for a rule that reads
every pair."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from choilab.cli import main
from choilab.codec import dumps, state_to_dict
from choilab.entanglement import (
    cut_min_eigenvalues,
    ghz_diagonal_coefficients,
    pair_verdicts,
)
from choilab.linalg import PSD_THRESHOLD
from choilab.states import MultipartiteState, PartySystem, cut_side, permute_parties

from conftest import random_ghz_diagonal_state, random_state, random_x_state

KINDS = ("ghz-symmetric", "ghz-asymmetric", "x-shaped", "dense")
# Rounding moves a value by ~1e-16 when its entries move; margins closer
# than this to the threshold could flip a verdict without any defect.
MARGIN = 1e-12


def drawn_state(kind: str, n: int, seed: int) -> MultipartiteState:
    rng = np.random.default_rng(seed)
    system = PartySystem(tuple(f"Q{i}" for i in range(n)), (2,) * n)
    if kind == "x-shaped":
        return random_x_state(rng, system)
    if kind == "dense":
        return random_state(rng, system)
    return random_ghz_diagonal_state(rng, system, symmetric=kind == "ghz-symmetric")


def with_sigma_z(state: MultipartiteState, parties) -> MultipartiteState:
    """Z rho Z with sigma_z on each listed party: entry (x, y) gains the signs of both kets."""
    n = state.system.num_parties
    kets = np.arange(state.system.total_dim)
    signs = np.ones(kets.size)
    for label in parties:
        signs *= 1 - 2 * (kets >> (n - 1 - state.system.axis(label)) & 1)
    return MultipartiteState(state.system, state.matrix * np.outer(signs, signs))


@st.composite
def framed_states(draw, kinds=KINDS):
    """A qubit state of 2-5 parties, its kind, and the state in a new frame."""
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2, 5))
    state = drawn_state(kind, n, draw(st.integers(0, 2**32 - 1)))
    moved = state
    change = draw(st.sampled_from(["permute", "sigma_z", "both"]))
    if change != "sigma_z":
        moved = permute_parties(moved, draw(st.permutations(state.system.labels)))
    if change != "permute":
        flipped = [l for l in state.system.labels if draw(st.booleans())]
        moved = with_sigma_z(moved, flipped)
    return kind, state, moved


def cut_table(state: MultipartiteState) -> dict:
    """Each cut's smallest partial-transpose eigenvalue, keyed by its two sides as label sets."""
    system = state.system
    table = {}
    for k, low in enumerate(cut_min_eigenvalues(state).tolist(), start=1):
        side = frozenset(cut_side(system, k))
        table[frozenset({side, frozenset(system.labels) - side})] = low
    return table


def margins(state: MultipartiteState) -> list[float]:
    """How far each value a verdict reads lies from the threshold."""
    lows = cut_min_eigenvalues(state) - PSD_THRESHOLD
    coeffs = ghz_diagonal_coefficients(state)
    if not coeffs.ghz_diagonal:
        return lows.tolist()
    rule = coeffs.lambdas - coeffs.delta / 2 - PSD_THRESHOLD
    return lows.tolist() + rule.tolist()


def single_party_verdicts(state: MultipartiteState) -> dict:
    """Each single-party pair's verdict, keyed by its two labels, with its blocking cuts as label sets."""
    coeffs = ghz_diagonal_coefficients(state)
    labels = state.system.labels
    pairs = [((a,), (b,)) for i, a in enumerate(labels) for b in labels[i + 1 :]]
    everyone = frozenset(labels)
    verdicts = {}
    for (a, b), v in zip(pairs, pair_verdicts(coeffs, pairs)):
        sides = [frozenset(cut_side(state.system, k)) for k in v.blocking_cuts]
        blocking = {frozenset({side, everyone - side}) for side in sides}
        verdicts[frozenset(a + b)] = (v.distillable, blocking)
    return verdicts


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("frames")


def classify_exit_code(state: MultipartiteState, directory) -> int:
    path = directory / "state.json"
    path.write_text(dumps(state_to_dict(state)))
    with contextlib.redirect_stdout(io.StringIO()):
        return main(["classify", str(path)])


@settings(max_examples=80)
@given(framed_states())
def test_cut_spectra_match_by_side_set(case):
    _, state, moved = case
    before, after = cut_table(state), cut_table(moved)
    assert before.keys() == after.keys()
    assert all(abs(before[cut] - after[cut]) <= 1e-12 for cut in before)


@settings(max_examples=80)
@given(framed_states(kinds=KINDS[:2]))
def test_pair_verdicts_match_by_labels(case):
    _, state, moved = case
    assume(min(map(abs, margins(state))) > MARGIN)
    assert single_party_verdicts(moved) == single_party_verdicts(state)


@settings(max_examples=40)
@given(framed_states())
def test_classify_exit_code_is_kept(state_dir, case):
    _, state, moved = case
    assume(min(map(abs, margins(state))) > MARGIN)
    assert classify_exit_code(moved, state_dir) == classify_exit_code(state, state_dir)
