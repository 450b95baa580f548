"""choilab: Kraus channels, Choi states and multipartite distillability checks.

The public names below are loaded from their modules on first use, so that
importing one layer (say ``choilab.linalg``) does not import the layers
above it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "channels": (
        "CptpReport",
        "KrausChannel",
        "apply",
        "apply_matrix",
        "choi",
        "kraus_from_choi",
        "mix",
        "reduced_channel",
        "verify_cptp",
    ),
    "entanglement": (
        "DistillabilityVerdict",
        "GhzDiagonalCoefficients",
        "LocalizationResult",
        "PtVerdict",
        "cut_min_eigenvalues",
        "cut_to_index",
        "filter_to_maximally_entangled",
        "ghz_diagonal_coefficients",
        "localize_entanglement",
        "npt_criterion",
        "npt_vector",
        "pair_verdicts",
        "pairwise_distillability",
        "ppt_check",
        "two_qubit_separability",
    ),
    "states": (
        "BipartiteCut",
        "MultipartiteState",
        "PartySystem",
        "PureState",
        "basis_projector",
        "fidelity",
        "ghz_basis_state",
        "max_entangled",
        "partial_trace",
        "partial_transpose",
        "permute_parties",
        "schmidt_decomposition",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value
