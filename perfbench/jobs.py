"""Running one job through holonome's user entry points, and checking it.

``execute`` is the timed part: CLI requests go through
``holonome.cli.run(argv, stdout=StringIO())`` in-process, and work the CLI
does not expose goes through the library API (``synthesize_su2``,
``ode_propagator``).  Layer functions are always looked up as module
attributes, so the tracer's wrappers see every call.

``check`` runs outside the timed region.  It recomputes each search from
the reported winner and compares the winner with an independent numpy scan
of the same lattice under the objective the API documents; it also checks
the library tolerances of gates, audits and propagators.  A job fails if
it raises, exits non-zero (every generated input is documented-valid), or
fails a check.

Two kinds of check failure are kept apart.  A report whose own diagnostics
(closure residual, analytic-vs-numeric distance, leakage audit, audit
verdict in the commuting limit) miss their library tolerance is a failed
job that the program itself exposes: the precision limit at large
windings.  An output that disagrees with an independent recomputation (a
search winner that is not the minimum, a wrong gate, fidelity or
propagator) is a wrong output.
"""

from __future__ import annotations

import hashlib
import io
import json
import re
from dataclasses import dataclass

import numpy as np

from holonome import adiabatic, cli, deformation, holonomy, reporting, spin_model, synthesis
from workloads import SWEEP_T

TWO_PI = 2.0 * np.pi
SQRT2 = np.sqrt(2.0)

# RK4 is fourth order: its distance to the exact propagator scales as
# steps**-4.  The bound at 1000 steps is about 15x the largest distance seen
# over the oracle-verify input domain (kappa <= 10, T <= 10), so it catches
# construction errors (which give O(1) distances), not step-size noise.
RK4_BOUND_AT_1000_STEPS = 1e-4

# Ties between lattice points whose objectives differ by less than this are
# accepted either way (the CLI Hadamard scan evaluates distances through
# matrices, the reference through a closed form).
TIE_TOL = 1e-12
# Recomputed distances and matrices agree to this; the reported values come
# from products of unitaries with arguments up to ~1e5 rad.
VALUE_TOL = 1e-8

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SZ = np.array([[1, 0], [0, -1]], dtype=complex)
_AXES = {"x": (1.0, 0.0, 0.0), "y": (0.0, 1.0, 0.0)}


class CheckError(Exception):
    """A produced output disagrees with its independent check."""


class ToleranceFailure(Exception):
    """A report's own diagnostic misses its library tolerance."""


@dataclass
class Outcome:
    """What the benchmark learns from one job, beyond its latency."""

    failure: str | None = None  # reason class when the job failed
    wrong: bool = False  # failed because an output disagrees with its recomputation
    digest: bytes = b""  # sha256 of the job's canonical output bytes
    lattice_points: int = 0
    searches: int = 0
    exhausted: int = 0
    suboptimal: int = 0
    report_bytes: int = 0
    rk4_steps: int = 0
    rk4_flops: int = 0


@dataclass
class OracleResult:
    gamma: np.ndarray
    exact: np.ndarray
    rk4: np.ndarray
    fidelity: tuple
    sweep: list


# -- timed part -----------------------------------------------------------
def _su2_target(spec):
    return np.array([complex(re_, im) for re_, im in spec["target"]]).reshape(2, 2)


def _oracle_models(loop):
    if len(loop) == 2:
        gen = deformation.one_qubit_generator(loop[0], loop[1])
        return gen, spin_model.build_one_dimer(1.0, 1.0)
    gen = deformation.two_qubit_generator(*loop)
    return gen, spin_model.build_two_dimer(1.0, 1.0)


def execute(spec):
    kind = spec["kind"]
    if kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        code = cli.run(list(spec["argv"]), stdout=out, stderr=err)
        return code, out.getvalue(), err.getvalue()
    if kind == "su2":
        return synthesis.synthesize_su2(_su2_target(spec), spec["eps"], spec["kappa_max"])
    if kind == "oracle":
        T, steps = spec["T"], spec["steps"]
        gen, model = _oracle_models(spec["loop"])
        gate = holonomy.holonomy(holonomy.connection_on_ground_space(gen, model))
        exact = adiabatic.exact_propagator(model, gen, T)
        rk4 = adiabatic.ode_propagator(model, gen, T, steps)
        fidelity = adiabatic.holonomy_fidelity(exact, gate, model, T)
        sweep = adiabatic.adiabatic_sweep(model, gen, gate, SWEEP_T)
        return OracleResult(gate.gamma, exact, rk4, fidelity, sweep)
    raise ValueError(f"unknown job kind {kind!r}")


# -- checks ---------------------------------------------------------------
def _expect(cond, what):
    if not cond:
        raise CheckError(what)


def _within_tolerance(cond, what):
    if not cond:
        raise ToleranceFailure(what)


def _reason(text: str) -> str:
    """Failure message with its numbers masked, so equal causes group together."""
    first = text.strip().splitlines()[0] if text.strip() else ""
    return re.sub(r"[-+]?\d+(\.\d+)?(e[-+]?\d+)?", "#", first)[:120]


def output_digest(spec, raw, error) -> bytes:
    """sha256 of a job's canonical output bytes."""
    return hashlib.sha256(_output_bytes(spec, raw, error)).digest()


def _output_bytes(spec, raw, error) -> bytes:
    if error is not None:
        return f"raise {type(error).__name__}: {error}".encode()
    if spec["kind"] == "cli":
        code, stdout, stderr = raw
        return f"{code}\n{stdout}\n{stderr}".encode()
    if spec["kind"] == "su2":
        return b"|".join([f"{a}{r.params['kappa']}:{r.angle_error!r}".encode()
                          for a, r in raw.steps]
                         + [raw.composite.tobytes(), repr(raw.total_distance).encode()])
    return b"|".join([raw.exact.tobytes(), raw.rk4.tobytes(), repr(raw.fidelity).encode()]
                     + [r.propagator.tobytes() + repr((r.fidelity, r.leakage)).encode()
                        for r in raw.sweep])


def check(spec, raw, error) -> Outcome:
    out = Outcome(digest=output_digest(spec, raw, error))
    if error is not None:
        out.failure = f"raised {type(error).__name__}: {_reason(str(error))}"
        return out
    try:
        if spec["kind"] == "cli":
            _check_cli(spec["argv"], raw, out)
        elif spec["kind"] == "su2":
            _check_su2(spec, raw, out)
        else:
            _check_oracle(spec, raw, out)
    except ToleranceFailure as exc:
        out.failure = f"tolerance: {exc}"
    except (CheckError, KeyError, TypeError, ValueError) as exc:
        out.failure = f"check {type(exc).__name__}: {_reason(str(exc))}"
        out.wrong = True
    return out


def _matrix(payload) -> np.ndarray:
    return np.array(payload["real"], dtype=float) + 1j * np.array(payload["imag"], dtype=float)


def _unitarity_defect(u) -> float:
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def _distance(u, v) -> float:
    """Phase-invariant gate distance, min_phi ||U - e^{i phi} V||_F / sqrt(2 dim)."""
    overlap = np.trace(u.conj().T @ v)
    phase = np.exp(-1j * np.angle(overlap)) if abs(overlap) > 0 else 1.0
    return float(np.linalg.norm(u - phase * v) / np.sqrt(2.0 * u.shape[0]))


def _rotation(theta, axis) -> np.ndarray:
    """exp(-i theta axis . sigma)."""
    dotted = axis[0] * _SX + axis[1] * _SY + axis[2] * _SZ
    return np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * dotted


def _circular(delta, period=TWO_PI):
    r = np.abs(delta) % period
    return np.minimum(r, period - r)


def _options(argv):
    opts, i = {}, 1
    while i < len(argv):
        if argv[i].startswith("--") and "=" in argv[i]:
            key, value = argv[i].split("=", 1)
            opts[key] = value
        elif argv[i].startswith("--"):
            if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
                opts[argv[i]] = argv[i + 1]
                i += 2
                continue
            opts[argv[i]] = True
        i += 1
    return opts


def _check_cli(argv, raw, out: Outcome):
    code, stdout, stderr = raw
    if code != 0:
        out.failure = f"exit {code}: {_reason(stderr)}"
        return
    out.report_bytes = len(stdout.encode())
    report = json.loads(stdout)
    _expect(report["deterministic"] is True and stderr == "", "report header")
    o, opts = report["outputs"], _options(argv)
    cmd = argv[0]
    if cmd == "one-qubit":
        _check_gate_report(o, o["gamma"], deformation.ONE_QUBIT_CLOSURE_TOL)
    elif cmd == "two-qubit":
        _check_gate_report(o, o["gamma_exact"], deformation.TWO_QUBIT_CLOSURE_TOL)
    elif cmd == "audit":
        consistent = o["discrepancy"] < reporting.AUDIT_CONSISTENCY_TOL
        _expect(o["verdict"] == ("consistent" if consistent else "inconsistent"), "audit verdict")
        _expect(o["invariants_match"] == (o["invariants_distance"] < 1e-8), "invariants flag")
        if "--j-zero" in opts:
            _within_tolerance(consistent, "commuting-limit audit is not consistent")
        _expect(_unitarity_defect(_matrix(o["gamma_exact"])) < 1e-10, "audit gate unitarity")
    elif cmd == "sweep":
        t_list = sorted(float(t) for t in opts["--T"].split(","))
        _expect([r[0] for r in o["rows"]] == t_list, "sweep T column")
        for _, fid, leak in o["rows"]:
            _expect(0.0 <= fid <= 1.0 and 0.0 <= leak <= 1.0, "sweep fidelity/leakage range")
    elif cmd == "figure":
        _check_figure(argv[1], "--caption-convention" in opts, o)
    elif cmd == "search":
        _check_search(opts, o, out)
    else:
        raise CheckError(f"unexpected command {cmd}")


def _check_gate_report(o, gamma, tol):
    # The library states no tolerance of its own for the analytic-vs-numeric
    # distance; the loop's closure tolerance bounds the same rounding.
    _within_tolerance(o["closure_residual"] <= tol, "closure residual")
    _within_tolerance(o["analytic_vs_numeric_distance"] <= tol, "analytic vs numeric distance")
    _within_tolerance(o["leakage_audit_passed"] is True, "leakage audit")
    _expect(_unitarity_defect(_matrix(gamma)) < 1e-10, "gate unitarity")


def _check_figure(which, caption, o):
    kappas = [row[0] for row in o["rows"]]
    if which == "fig2":
        _expect(kappas == list(range(21)), "fig2 rows")
        for k, theta, s in o["rows"]:
            _expect(abs(theta - 2.0 * k * np.pi / np.sqrt(3.0)) < 1e-12
                    and abs(s - np.sin(theta)) < 1e-12, "fig2 values")
    elif which == "fig3":
        _expect(kappas == list(range(11)), "fig3 rows")
        step = 2.0 * np.pi / np.sqrt(3.0) if caption else SQRT2 * np.pi
        for k, theta, c, s in o["rows"]:
            _expect(_circular(theta - k * step) < 1e-12 and abs(c - np.cos(theta)) < 1e-12
                    and abs(s - np.sin(theta)) < 1e-12, "fig3 values")
    else:
        pairs = [(kp, km) for kp in range(1, 6) for km in range(kp + 1, 3 * kp)]
        _expect([tuple(r[:2]) for r in o["rows"]] == pairs, "fig4 rows")
        for kp, km, j, two_j, c, s in o["rows"]:
            ref = (np.pi / (2.0 * SQRT2)) * np.sqrt(km * km - kp * kp)
            _expect(abs(j - ref) < 1e-12 and _circular(two_j - 2.0 * ref) < 1e-12
                    and abs(c - np.cos(2 * ref)) < 1e-12, "fig4 values")


# -- searches ---------------------------------------------------------------
def _check_search(opts, o, out: Outcome):
    target = opts["--target"]
    eps = float(opts.get("--eps", 0.05))
    out.searches += 1
    if target in ("rx", "ry"):
        kappa_max = int(opts.get("--kappa-max", 500))
        _check_rotation(target[-1], float(opts["--theta"]), eps, kappa_max,
                        o["params"]["kappa"], o["angle_error"], o["gate_distance"],
                        _matrix(o["gate"]), o["exhausted"], out)
    elif target == "hadamard":
        _check_hadamard(int(opts.get("--kappa-max", 500)), eps, o, out)
    else:
        theta = np.pi / 2.0 if target == "cz" else float(opts["--theta"])
        _check_cphase(theta, eps, int(opts.get("--kp-max", 10)),
                      int(opts.get("--n-max", 500)), o, out)


def _check_rotation(axis, theta, eps, kappa_max, kappa, angle_error, gate_distance,
                    gate, exhausted, out: Outcome):
    """Rotation about x or y: lattice theta_k = k pi sqrt 2, objective circular error mod 2 pi."""
    step = np.pi * SQRT2
    ks = np.arange(1, kappa_max + 1, dtype=np.float64)
    delta = theta - ks * step
    err = _circular(delta)
    best = int(np.argmin(err))
    _expect(1 <= kappa <= kappa_max, "winner outside the bounds")
    _expect(kappa == best + 1 or err[kappa - 1] - err[best] <= TIE_TOL, "winner is not the minimum")
    _expect(abs(angle_error - err[kappa - 1]) <= TIE_TOL, "reported angle error")
    _expect(exhausted == (angle_error >= eps), "exhausted flag")
    # Gate distance ignores global phase, so its period in the angle is pi.
    dist = SQRT2 * np.sin(_circular(delta, np.pi) / 2.0)
    _expect(abs(gate_distance - dist[kappa - 1]) <= VALUE_TOL, "reported gate distance")
    ref_gate = _rotation((kappa * np.pi) * SQRT2, _AXES[axis])
    _expect(np.max(np.abs(gate - ref_gate)) <= VALUE_TOL, "reported gate")
    out.lattice_points += kappa_max
    out.exhausted += bool(exhausted)
    if dist.min() < dist[kappa - 1] - TIE_TOL:
        out.suboptimal += 1


def _check_hadamard(kappa_max, eps, o, out: Outcome):
    """Axis n = (1/sqrt3, 0, sqrt(2/3)): theta_k = k pi sqrt(4/3) about m = (1, 0, 1)/sqrt2."""
    n_z = np.sqrt(2.0 / 3.0)
    root = np.sqrt(2.0 - n_z ** 2)
    ks = np.arange(1, kappa_max + 1, dtype=np.float64)
    thetas = (ks * np.pi) * root
    # H = i exp(-i (pi/2) m . sigma), so the distance depends on pi/2 - theta mod pi.
    dist = SQRT2 * np.sin(_circular(np.pi / 2.0 - thetas, np.pi) / 2.0)
    kappa = o["params"]["kappa"]
    _expect(1 <= kappa <= kappa_max, "winner outside the bounds")
    _expect(dist[kappa - 1] - dist.min() <= TIE_TOL, "winner is not the minimum")
    _expect(abs(o["gate_distance"] - dist[kappa - 1]) <= VALUE_TOL, "reported gate distance")
    _expect(o["exhausted"] == (o["gate_distance"] >= eps), "exhausted flag")
    m = (1.0 / SQRT2, 0.0, 1.0 / SQRT2)
    _expect(_distance(_matrix(o["gate"]), _rotation(thetas[kappa - 1], m)) <= VALUE_TOL,
            "reported gate")
    out.lattice_points += kappa_max
    out.exhausted += bool(o["exhausted"])


def _check_cphase(theta, eps, kp_max, n_max, o, out: Outcome):
    """Lattice 2 n J(kp, km); objective circular error mod 2 pi; order n, kp, km."""
    pairs = np.array([(kp, km) for kp in range(1, kp_max + 1) for km in range(kp + 1, 3 * kp)])
    j = (np.pi / (2.0 * SQRT2)) * np.sqrt(pairs[:, 1] ** 2 - pairs[:, 0] ** 2)
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    delta = (2.0 * ns)[:, None] * j[None, :] - theta
    err = _circular(delta)
    best = int(np.argmin(err))
    p = o["params"]
    hits = np.nonzero((pairs[:, 0] == p["kappa_plus"]) & (pairs[:, 1] == p["kappa_minus"]))[0]
    _expect(len(hits) == 1 and 1 <= p["n"] <= n_max, "winner outside the bounds")
    flat = (p["n"] - 1) * len(pairs) + int(hits[0])
    _expect(flat == best or err.flat[flat] - err.flat[best] <= TIE_TOL, "winner is not the minimum")
    _expect(abs(o["angle_error"] - err.flat[flat]) <= TIE_TOL, "reported angle error")
    _expect(o["exhausted"] == (o["angle_error"] >= eps), "exhausted flag")
    dist = abs(np.sin(delta.flat[flat] / 2.0))
    _expect(abs(o["gate_distance"] - dist) <= VALUE_TOL, "reported gate distance")
    alpha = delta.flat[flat] + theta  # 2 n J
    ref_gate = np.diag([1.0, 1.0, np.exp(1j * alpha), np.exp(-1j * alpha)])
    _expect(np.max(np.abs(_matrix(o["gate"]) - ref_gate)) <= VALUE_TOL, "reported gate")
    out.lattice_points += n_max * len(pairs)
    out.exhausted += bool(o["exhausted"])


def _check_su2(spec, program, out: Outcome):
    u = _su2_target(spec)
    alpha, beta, gamma = synthesis.euler_yxy(u)
    exact = (_rotation(alpha / 2.0, _AXES["y"]) @ _rotation(beta / 2.0, _AXES["x"])
             @ _rotation(gamma / 2.0, _AXES["y"]))
    _expect(_distance(exact, u) < 1e-9, "y-x-y decomposition does not reproduce the target")
    wanted = [(axis, 0.5 * angle) for axis, angle in (("y", alpha), ("x", beta), ("y", gamma))
              if _circular(0.5 * angle) >= 1e-12]
    _expect([a for a, _ in program.steps] == [a for a, _ in wanted], "step axes")
    composite = np.eye(2, dtype=complex)
    for (axis, result), (_, theta) in zip(program.steps, wanted):
        out.searches += 1
        _check_rotation(axis, theta, spec["eps"], spec["kappa_max"], result.params["kappa"],
                        result.angle_error, result.gate_distance, result.gate,
                        result.exhausted, out)
        composite = composite @ result.gate
    _expect(np.max(np.abs(program.composite - composite)) <= 1e-12, "composite gate")
    _expect(abs(program.total_distance - _distance(composite, u)) <= VALUE_TOL, "total distance")
    _expect(program.exhausted == any(r.exhausted for _, r in program.steps), "exhausted flag")


# -- oracle -----------------------------------------------------------------
def _reference_spaces(dim):
    """Coding vectors, ground projector for the models at omega = J = 1."""
    t_plus = np.array([1, 0, 0, 0], dtype=complex)
    t_zero = np.array([0, 1, 1, 0], dtype=complex) / SQRT2
    ground = np.diag([1.0, 1.0, 1.0, 0.0]).astype(complex)
    if dim == 4:
        return np.column_stack([t_plus, t_zero]), ground
    cols = [np.kron(a, b) for a in (t_plus, t_zero) for b in (t_plus, t_zero)]
    return np.column_stack(cols), np.kron(ground, ground)


def _fidelity_leakage(u, gamma, coding, ground):
    dim_c = coding.shape[1]
    v = coding.conj().T @ u @ coding
    fidelity = abs(np.trace(gamma.conj().T @ v)) / dim_c
    leakage = 1.0 - np.linalg.norm(ground @ u @ coding) ** 2 / dim_c
    return min(fidelity, 1.0), min(max(leakage, 0.0), 1.0)


def _check_oracle(spec, res: OracleResult, out: Outcome):
    dim, steps = res.exact.shape[0], spec["steps"]
    out.rk4_steps = steps
    # 8 complex dim x dim matmuls per RK4 step (4 stage products, 2 per
    # H(tau) evaluation at tau + dt/2 and tau + dt), 8 dim^3 real flops each.
    out.rk4_flops = steps * 8 * 8 * dim ** 3
    _expect(_unitarity_defect(res.exact) < 1e-10, "exact propagator unitarity")
    rk4_err = float(np.linalg.norm(res.rk4 - res.exact))
    _expect(rk4_err <= RK4_BOUND_AT_1000_STEPS * (1000.0 / steps) ** 4,
            f"RK4 is {rk4_err:.3e} from the exact propagator")
    coding, ground = _reference_spaces(dim)
    ref = _fidelity_leakage(res.exact, res.gamma, coding, ground)
    _expect(max(abs(a - b) for a, b in zip(res.fidelity, ref)) <= 1e-10, "fidelity/leakage")
    _expect([r.T for r in res.sweep] == sorted(SWEEP_T), "sweep T values")
    for run in res.sweep:
        _expect(_unitarity_defect(run.propagator) < 1e-10, "sweep propagator unitarity")
        ref = _fidelity_leakage(run.propagator, res.gamma, coding, ground)
        _expect(abs(run.fidelity - ref[0]) <= 1e-10 and abs(run.leakage - ref[1]) <= 1e-10,
                "sweep fidelity/leakage")

