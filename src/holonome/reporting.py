"""Deterministic JSON / CSV rendering for reports and figure data.

It renders text only; ``holonome.cli`` writes it.  Byte determinism is part
of the contract: keys are emitted sorted, floats with 17 significant digits
(enough to round-trip a double exactly), LF line endings, no locale dependence
and no timestamps in payload bodies.
"""

from __future__ import annotations

import functools
import json
import math
import operator

import numpy as np

from holonome import __version__
from holonome.errors import DomainError

AUDIT_CONSISTENCY_TOL = 1e-8


def format_float(x: float) -> str:
    """17 significant digits; a non-finite value (no JSON form) is a DomainError."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"cannot report the non-finite value {x!r}")
    return f"{x:.17g}"


def _emit_floats(a: np.ndarray) -> str:
    """A float array as nested JSON lists, with one finiteness check for all of it."""
    finite = np.isfinite(a)
    if not finite.all():
        format_float(a[~finite][0])  # raises DomainError naming the value
    return _float_lists(a.tolist())


def _float_lists(rows: list) -> str:
    if rows and isinstance(rows[0], list):
        return "[" + ",".join(_float_lists(r) for r in rows) + "]"
    return "[" + ",".join([f"{x:.17g}" for x in rows]) + "]"  # as format_float


def _emit_dict(value: dict) -> str:
    items = sorted(value.items(), key=operator.itemgetter(0))
    return "{" + ",".join([_key(k) + ":" + _emit(v) for k, v in items]) + "}"


def _emit_sequence(value) -> str:
    return "[" + ",".join([_emit(v) for v in value]) + "]"


def _emit_complex(value) -> str:
    # The form and order of _emit({"re": ..., "im": ...}): sorted keys, "im" first.
    return '{"im":' + format_float(value.imag) + ',"re":' + format_float(value.real) + "}"


def _emit_array(value: np.ndarray) -> str:
    if value.dtype.kind == "f" and value.ndim:
        return _emit_floats(value)
    return _emit(value.tolist())


@functools.lru_cache(maxsize=1024)
def _quoted(key: str) -> str:
    return json.dumps(key)


def _key(key) -> str:
    """A dict key as a JSON string; a str key is quoted once per process."""
    return _quoted(key) if type(key) is str else json.dumps(str(key))


# Emitters by exact type; any other type, a subclass or numpy scalar too, is a TypeError.
_EMITTERS = {
    dict: _emit_dict,
    list: _emit_sequence,
    tuple: _emit_sequence,
    bool: json.dumps,
    type(None): json.dumps,
    int: str,
    float: format_float,
    complex: _emit_complex,
    np.ndarray: _emit_array,
    str: json.dumps,
}


def _emit(value) -> str:
    emitter = _EMITTERS.get(type(value))
    if emitter is None:
        raise TypeError(f"cannot serialize {type(value)!r}")
    return emitter(value)


def dumps_report(report: dict) -> str:
    return _emit(report) + "\n"


def matrix_payload(m) -> dict:
    """Real and imaginary parts as float arrays, serialized by the flat emitter."""
    m = np.asarray(m, dtype=complex)
    return {"real": m.real, "imag": m.imag}


def build_report(kind: str, inputs: dict, outputs: dict) -> dict:
    return {
        "kind": kind,
        "inputs": inputs,
        "outputs": outputs,
        "tool_version": __version__,
        "deterministic": True,
    }


def csv_lines(header, rows):
    """Render numeric rows with the exact header; ints bare, floats at 17 digits."""
    lines = [",".join(header)] + [",".join([_emit(cell) for cell in row]) for row in rows]
    return "\n".join(lines) + "\n"


def audit_payload(fact) -> dict:
    """JSON payload for a two-qubit factorization audit."""
    g1_exact, g2_exact = fact.invariants_exact
    g1_ctrl, g2_ctrl = fact.invariants_controlled
    verdict = "consistent" if fact.discrepancy < AUDIT_CONSISTENCY_TOL else "inconsistent"
    return {
        "coupling_j": fact.loop.coupling_j,
        "controlled_phase_angle": 2.0 * fact.loop.coupling_j,
        "discrepancy": fact.discrepancy,
        "verdict": verdict,
        "invariants_exact": {"g1": complex(g1_exact), "g2": g2_exact},
        "invariants_controlled": {"g1": complex(g1_ctrl), "g2": g2_ctrl},
        "invariants_distance": fact.invariants_distance,
        "invariants_match": fact.invariants_match,
        "block_residual": fact.block_residual,
        "gamma_exact": matrix_payload(fact.gamma_exact),
        "paper_factorization": matrix_payload(fact.paper_factorization),
    }
