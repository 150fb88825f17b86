"""Session setup and reference computations shared by the test modules."""

import numpy as np
from hypothesis import configuration

from holonome.matrix_kernel import expm_skew, frobenius
from holonome.spin_model import ID2, SIGMA_X, SIGMA_Y, SIGMA_Z, coding_space, ground_basis


def pytest_configure(config):
    # Even without an example database, hypothesis caches the constants it
    # mines from local source under its home directory (``.hypothesis/`` by
    # default); keep that cache inside pytest's own cache directory.
    cache = getattr(config, "cache", None)
    if cache is not None:
        configuration.set_hypothesis_home_dir(cache.mkdir("hypothesis"))


def closure_residual(x) -> float:
    """Reference for ``DeformationGenerator.closure_residual``: ||exp(X) - 1||_F afresh."""
    x = np.asarray(x, dtype=complex)
    return frobenius(expm_skew(x) - np.eye(x.shape[0]))


def one_qubit_coding_connection(loop) -> np.ndarray:
    """Reference closed-form coding block: i Omega [n_z (I + sz) + sqrt2 (n_x sx + n_y sy)]."""
    nx, ny, nz = loop.n
    return 1j * loop.omega * (
        nz * (ID2 + SIGMA_Z) + np.sqrt(2.0) * (nx * SIGMA_X + ny * SIGMA_Y)
    )


def eager_leakage_audit(gen, model):
    """Reference: the leakage block labelled element by element, its verdict, and
    the paper's named cross-coupling elements (two dimers only).

    Returns (entries, max_abs, passed, named) with ``entries`` as
    (non-coding label, coding label, element) triples.
    """
    labels, vecs = ground_basis(model)
    dim_c = coding_space(model).dim
    block = vecs[:, dim_c:].conj().T @ gen.x @ vecs[:, :dim_c]
    entries = tuple(
        (labels[dim_c + i], labels[j], complex(block[i, j]))
        for i in range(block.shape[0])
        for j in range(block.shape[1])
    )
    max_abs = float(np.max(np.abs(block)))
    named = {}
    if model.n_spins == 4:
        cross = gen.parts["cross"]
        col = {lab: vecs[:, k] for k, lab in enumerate(labels)}
        for bra, ket in (("T+T+", "T+T+"), ("T+S0", "T+T0"), ("S0T+", "T0T+"),
                         ("S0S0", "T0S0"), ("S0T0", "T0S0")):
            named[f"<{bra}|Xc|{ket}>"] = complex(col[bra].conj() @ cross @ col[ket])
    return entries, max_abs, max_abs < 1e-12, named
