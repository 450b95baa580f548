import json

import numpy as np
import pytest

import gen
import workloads
from choilab import codec


def pool_files(seed: int) -> list[str]:
    """State files as the classify workload writes them, channel files as the codec writes them."""
    rng = np.random.default_rng(seed)
    states = [gen.ghz_spec(rng, n).file_text() for n in (3, 4, 6)]
    chans = [
        codec.dumps(codec.channel_to_dict(workloads.to_channel(c)))
        for t in range(3)
        for c in gen.random_channel_set(rng, str(t))
    ]
    return states + chans


def test_same_seed_gives_identical_files():
    assert pool_files(11) == pool_files(11)


def test_different_seeds_give_different_files():
    a, b = pool_files(11), pool_files(12)
    assert all(x != y for x, y in zip(a, b))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_ghz_truth_matches_own_partial_transpose(n):
    # With symmetric pair weights, transposing across cut j moves the delta/2
    # coherence into pair j, whose block then has eigenvalues lambda_j +- delta/2;
    # every other eigenvalue is a weight, so the sign follows 2*lambda_j < delta.
    spec = gen.ghz_spec(np.random.default_rng(n), n)
    rho = spec.matrix()
    assert abs(np.trace(rho) - 1) < 1e-14
    assert np.linalg.eigvalsh(rho)[0] >= 0
    floor = min((spec.lambda0_plus + spec.lambda0_minus) / 2, *spec.lambdas.values())
    for j, lam in spec.lambdas.items():
        low = gen.min_pt_eigenvalue(rho, n, j)
        assert abs(low - min(lam - spec.delta / 2, floor)) < 1e-14
        assert (low < gen.PSD_THRESHOLD) == spec.npt(j)


def test_pair_truth_follows_separating_cuts():
    spec = gen.GhzSpec(("A", "B", "C"), 0.6, 0.1, {"01": 0.05, "10": 0.3, "11": 0.0})
    # delta = 0.5: cut 10 (A | B,C) is PPT, 01 (B | A,C) and 11 (A,B | C) are NPT.
    assert spec.separating_cuts(0, 1) == ["01", "10"]
    assert spec.default_pairs() == {
        "distill-A-vs-B": False,
        "distill-A-vs-C": False,
        "distill-B-vs-C": True,
    }


def test_random_channels_are_trace_preserving():
    for ch in gen.random_channel_set(np.random.default_rng(5), "x"):
        d_in = ch.kraus[0].shape[1]
        assert 1 <= len(ch.kraus) <= 8
        assert np.linalg.norm(sum(a.conj().T @ a for a in ch.kraus) - np.eye(d_in)) < 1e-12


def test_own_parser_reads_codec_files_bit_exactly():
    spec = gen.random_channel_set(np.random.default_rng(9), "y")[0]
    doc = json.loads(codec.dumps(codec.channel_to_dict(workloads.to_channel(spec))))
    for a, rows in zip(spec.kraus, doc["kraus"]):
        assert gen.same_bits(gen.parse_matrix(rows), a)
    assert not gen.same_bits(np.array([complex(0.0, 0.0)]), np.array([complex(-0.0, 0.0)]))
