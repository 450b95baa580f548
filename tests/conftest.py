import numpy as np
import pytest
from hypothesis import settings

from choilab.entanglement import all_cut_indices
from choilab.states import MultipartiteState, PartySystem, ghz_basis_state


# Every property test draws the same examples on every run, so a verdict on
# a commit repeats; no example database is read or written, and no deadline
# turns a slow example into a failure.
settings.register_profile("repeatable", deadline=None, database=None, derandomize=True)
settings.load_profile("repeatable")


# Matrix fields that the codec rejects with ParseError.
REJECTED_MATRICES = {
    "string": [[["1", 0]]],
    "null-cell": [[[None, 0]]],
    "null-matrix": None,
    "row-not-array": [[[1, 0]], 5],
    "ragged-rows": [[[1, 0], [0, 0]], [[0, 0]]],
    "re-only-cells": [[[1.0]]],
    "triple-cells": [[[1.0, 0.0, 0.0]]],
    "depth-4": [[[[1, 0], [0, 0]]]],
    "empty-row": [[]],
    "empty": [],
    "object": {"re": 1, "im": 0},
    "number": 1.0,
    "cell-not-pair": [[1, 0]],
    "mixed-cell-depth": [[[1, 0], [[1], 0]]],
}


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def random_state(rng: np.random.Generator, system: PartySystem) -> MultipartiteState:
    return MultipartiteState(system, random_density_matrix(rng, system.total_dim))


def random_pure_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_ghz_diagonal_state(
    rng: np.random.Generator, system: PartySystem, symmetric: bool = True
) -> MultipartiteState:
    """Random state diagonal in the GHZ basis.

    With ``symmetric`` the two weights of each pair j != 0 are equal;
    otherwise every GHZ-basis weight is drawn independently.
    """
    n = system.num_parties
    indices = all_cut_indices(n)
    if symmetric:
        raw = rng.random(2 + len(indices))
        raw = np.concatenate([raw[:2], np.repeat(raw[2:], 2)])
    else:
        raw = rng.random(2 + 2 * len(indices))
    weights = raw / raw.sum()
    keys = [(j, s) for j in ("0" * (n - 1), *indices) for s in (1, -1)]
    return ghz_diagonal_state(system, dict(zip(keys, weights)))


def ghz_diagonal_state(system: PartySystem, weights: dict) -> MultipartiteState:
    """sum of w |Psi_j^s><Psi_j^s| over the {(j, s): w} weights, from the GHZ vectors."""
    m = sum(w * _proj(ghz_basis_state(system, j, s).vector) for (j, s), w in weights.items())
    return MultipartiteState(system, m)


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


@pytest.fixture(scope="session")
def four_qubits() -> PartySystem:
    return PartySystem(("A1", "B", "A2", "C"), (2, 2, 2, 2))


@pytest.fixture(scope="session")
def scenario_states():
    from choilab.nonadditivity import build_scenario

    return build_scenario().states


@pytest.fixture(scope="session")
def fixture_dir(tmp_path_factory):
    """Bundled channel/state files, generated by the builders (never hand-edited)."""
    from choilab.codec import channel_to_dict, dumps, state_to_dict
    from choilab.nonadditivity import (
        binding_channel,
        choi_state,
        ghz3_state,
        mixed_binding_channel,
    )

    root = tmp_path_factory.mktemp("fixtures")
    parts = [binding_channel(a) for a in (1, 2, 3)]
    for a, ch in enumerate(parts, start=1):
        (root / f"e{a}.json").write_text(dumps(channel_to_dict(ch)))
        (root / f"e{a}_choi.json").write_text(dumps(state_to_dict(choi_state(ch))))
    (root / "ghz3.json").write_text(dumps(state_to_dict(ghz3_state().density())))
    (root / "emix_choi.json").write_text(
        dumps(state_to_dict(choi_state(mixed_binding_channel(parts))))
    )
    return root
