"""Seeded inputs and their ground truth, built from the benchmark's own numpy code.

Nothing here calls the package under test: states and channels are drawn
with numpy, state files are written in the package's documented JSON
format by the benchmark's own writer, and the expected verdicts come from
the weights the generator chose, or from the benchmark's own
partial-transpose eigensolve.  The same seed gives the same inputs, bit
for bit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# An eigenvalue of a partial transpose counts as nonnegative at or above this
# (the package's documented default positivity threshold).
PSD_THRESHOLD = -1e-9


def dumps(obj) -> str:
    """The package's JSON layout: two-space indent, sorted keys, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def parse_matrix(rows) -> np.ndarray:
    """[[[re, im], ...], ...] -> complex128, keeping every bit (signed zeros too)."""
    pairs = np.asarray(rows, dtype=np.float64)
    out = np.empty(pairs.shape[:-1], dtype=np.complex128)
    out.real = pairs[..., 0]
    out.imag = pairs[..., 1]
    return out


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def all_cuts(n: int) -> list[str]:
    """Every bipartition of n parties as a nonzero (n-1)-bit string."""
    return [format(k, f"0{n - 1}b") for k in range(1, 1 << (n - 1))]


# ---------------------------------------------------------------------------
# GHZ-diagonal states with symmetric pair weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GhzSpec:
    """An N-qubit GHZ-diagonal state and the verdicts its weights imply.

    Cut j (an (N-1)-bit string, party i on the side without the last party
    iff bit i is 1) is NPT iff 2*lambda_j < delta; a pair of parties is
    distillable iff every cut separating them is NPT (Dur & Cirac, PRA 61,
    042314; Dur, Cirac & Tarrach, PRL 83, 3562).
    """

    labels: tuple[str, ...]
    lambda0_plus: float
    lambda0_minus: float
    lambdas: dict[str, float]

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def delta(self) -> float:
        return abs(self.lambda0_plus - self.lambda0_minus)

    def npt(self, j: str) -> bool:
        return 2 * self.lambdas[j] < self.delta

    def separating_cuts(self, p: int, q: int) -> list[str]:
        """Cuts putting parties p and q on opposite sides."""

        def side(j: str, party: int) -> str:
            return "0" if party == self.n - 1 else j[party]

        return [j for j in self.lambdas if side(j, p) != side(j, q)]

    def default_pairs(self) -> dict[str, bool]:
        """Distillability of every pair of single parties, keyed by the CLI entry id."""
        out = {}
        for p in range(self.n):
            for q in range(p + 1, self.n):
                key = f"distill-{self.labels[p]}-vs-{self.labels[q]}"
                out[key] = all(self.npt(j) for j in self.separating_cuts(p, q))
        return out

    def matrix(self) -> np.ndarray:
        n = self.n
        top = (1 << (n - 1)) - 1
        rho = np.zeros((1 << n, 1 << n), dtype=np.complex128)
        # |Psi_j^pm> = (|j,0> pm |jbar,1>)/sqrt2 has support {2j, 2*jbar + 1}.
        rho[0, 0] = rho[-1, -1] = (self.lambda0_plus + self.lambda0_minus) / 2
        rho[0, -1] = rho[-1, 0] = (self.lambda0_plus - self.lambda0_minus) / 2
        for j, lam in self.lambdas.items():
            k = int(j, 2)
            a, b = 2 * k, 2 * (top ^ k) + 1
            rho[a, a] = rho[b, b] = lam
        return rho

    def file_text(self) -> str:
        return dumps(
            {"labels": list(self.labels), "dims": [2] * self.n, "matrix": encode_matrix(self.matrix())}
        )


def ghz_spec(rng: np.random.Generator, n: int) -> GhzSpec:
    """Random symmetric-pair GHZ-diagonal weights on n qubits.

    The ratio 2*lambda_j/delta is uniform on [0, 1/(1-p)), so each cut is
    PPT with probability p, chosen so that a pair of single parties (which
    2^(n-2) cuts separate) is distillable about half the time.  No margin is
    kept from the boundary 2*lambda_j = delta.  States with asymmetric pair
    weights are never drawn: for them the coefficient criterion does not
    apply and the package's two routes disagree.
    """
    p = 1 - 0.5 ** (1 / 2 ** (n - 2))
    cuts = all_cuts(n)
    ratios = rng.random(len(cuts)) / (1 - p)
    minus = 0.5 * rng.random()
    plus = minus + 1.0  # delta = 1 before normalization
    total = plus + minus + float(ratios.sum())  # 2*lambda_j = ratio_j
    return GhzSpec(
        labels=tuple(f"Q{i}" for i in range(n)),
        lambda0_plus=plus / total,
        lambda0_minus=minus / total,
        lambdas={j: float(r) / 2 / total for j, r in zip(cuts, ratios)},
    )


# ---------------------------------------------------------------------------
# channels, Choi matrices and partial transposes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChannelSpec:
    name: str
    in_labels: tuple[str, ...]
    out_labels: tuple[str, ...]
    kraus: tuple[np.ndarray, ...]


def random_channel(rng: np.random.Generator, name: str, n_in: int, n_out: int) -> ChannelSpec:
    """CPTP map on qubits cut from a Haar-like random isometry (1-8 Kraus operators)."""
    d_in, d_out = 2**n_in, 2**n_out
    k = int(rng.integers(-(-d_in // d_out), 9))
    g = rng.standard_normal((k * d_out, d_in)) + 1j * rng.standard_normal((k * d_out, d_in))
    v, _ = np.linalg.qr(g)  # orthonormal columns: sum_k A_k^dagger A_k = 1
    return ChannelSpec(
        name=name,
        in_labels=tuple(f"I{i}" for i in range(n_in)),
        out_labels=tuple(f"O{i}" for i in range(n_out)),
        kraus=tuple(np.ascontiguousarray(v[i * d_out : (i + 1) * d_out]) for i in range(k)),
    )


def random_channel_set(rng: np.random.Generator, tag: str) -> tuple[ChannelSpec, ...]:
    """Three random channels sharing 1-2 input and 1-2 output qubits (so they mix)."""
    n_in, n_out = int(rng.integers(1, 3)), int(rng.integers(1, 3))
    return tuple(random_channel(rng, f"R{tag}.{c}", n_in, n_out) for c in range(3))


def choi_matrix(kraus, d_in: int) -> np.ndarray:
    """Unit-trace Choi matrix, (reference, output) index order."""
    vecs = np.stack([a.T.reshape(-1) for a in kraus])
    return vecs.T @ vecs.conj() / d_in


def mixture_choi(channels) -> np.ndarray:
    """Choi matrix of the uniform mixture of Kraus lists."""
    d_in = channels[0][0].shape[1]
    return sum(choi_matrix(k, d_in) for k in channels) / len(channels)


def permute(m: np.ndarray, n: int, perm) -> np.ndarray:
    """Reorder the qubit factors of a 2^n x 2^n matrix; perm[i] = old position of new i."""
    t = m.reshape((2,) * (2 * n))
    return t.transpose(tuple(perm) + tuple(p + n for p in perm)).reshape(m.shape)


def min_pt_eigenvalue(m: np.ndarray, n: int, j: str) -> float:
    """Smallest eigenvalue of the partial transpose over the parties with bit 1 in cut j."""
    t = m.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for i, bit in enumerate(j):
        if bit == "1":
            axes[i], axes[i + n] = axes[i + n], axes[i]
    return float(np.linalg.eigvalsh(t.transpose(axes).reshape(m.shape))[0])


