"""Seeded job streams for the three benchmark workloads.

A stream is drawn from one ``random.Random(seed)`` in fixed-size blocks.
Each block holds every job kind of its workload in fixed proportions, in a
seeded order.  Size parameters (scan bounds, windings) follow additive
recurrences from a fixed start instead of random draws: any prefix of the
stream covers each size range evenly, and every seed's job list holds the
same sizes, so seeds differ in angles, axes, targets, tolerances and order
but not in total work.  Jobs are plain data (lists, floats, strings): the
program receives only these generated inputs.

Job specs:
  {"kind": "cli", "argv": [...]}                 holonome.cli.run(argv)
  {"kind": "su2", "target": [[re, im] x 4], "eps": e, "kappa_max": k}
  {"kind": "oracle", "loop": [...], "T": T, "steps": s}
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("search-scan", "oracle-verify", "gate-build")

# At least 100 jobs per run gives a p90 with 10 samples beyond it; gate-build
# runs 1000 so that p99 is reportable as well.
MIN_JOBS = {"search-scan": 100, "oracle-verify": 100, "gate-build": 1000}

RK4_STEPS = 1000
SWEEP_T = tuple(10.0 ** (3.0 * k / 19.0) for k in range(20))  # 1 .. 1000

# Steps of the additive recurrences (R-sequence coordinates).
_STEPS = (0.6180339887498949, 0.7548776662466927, 0.5698402909980532,
          0.4142135623730950, 0.3247179572447460, 0.2360679774997897)


class _Recurrence:
    """u_i = (1/2 + i * alpha) mod 1: evenly spread for every prefix."""

    def __init__(self, alpha):
        self.u = 0.5
        self.alpha = alpha

    def __call__(self) -> float:
        self.u = (self.u + self.alpha) % 1.0
        return self.u


def _log_int(u: float, lo: int, hi: int) -> int:
    """Integer log-uniformly spread over [lo, hi]."""
    return min(hi, max(lo, int(math.floor(lo * (hi / lo) ** u))))


def _lin_int(u: float, lo: int, hi: int) -> int:
    return lo + min(hi - lo, int(u * (hi - lo + 1)))


def _num(x: float) -> str:
    return repr(float(x))


def _unit_axis(rng, max_abs_z=0.95):
    """Uniform unit vector with |n_z| <= max_abs_z (|n_z| = 1 is rejected by the CLI)."""
    while True:
        z = rng.uniform(-1.0, 1.0)
        if abs(z) <= max_abs_z:
            break
    phi = rng.uniform(0.0, 2.0 * math.pi)
    r = math.sqrt(1.0 - z * z)
    return [r * math.cos(phi), r * math.sin(phi), z]


def _haar_su2_target(rng):
    """Haar-random 2 x 2 unitary as [[re, im], ...] in row-major order."""
    # A uniform point on S^3 is a Haar-random SU(2) element; a uniform
    # global phase makes it Haar on U(2) up to that phase.
    g = [rng.gauss(0.0, 1.0) for _ in range(4)]
    norm = math.sqrt(sum(x * x for x in g))
    a, b = complex(g[0], g[1]) / norm, complex(g[2], g[3]) / norm
    phi = rng.uniform(0.0, 2.0 * math.pi)
    phase = complex(math.cos(phi), math.sin(phi))
    m = [a, -b.conjugate(), b, a.conjugate()]
    return [[(phase * x).real, (phase * x).imag] for x in m]


def _admissible_pairs(bound):
    return [(kp, km) for kp in range(1, bound + 1) for km in range(kp + 1, 3 * kp)
            if km <= bound]


class JobStream:
    """Deterministic stream of job specs for one workload and seed."""

    def __init__(self, workload: str, seed: int, max_winding: int):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.max_winding = int(max_winding)
        self.rng = random.Random(seed)
        self._seq = {}

    def _u(self, key) -> float:
        seq = self._seq.get(key)
        if seq is None:
            seq = self._seq[key] = _Recurrence(_STEPS[len(self._seq) % len(_STEPS)])
        return seq()

    def next_block(self) -> list:
        block = getattr(self, "_block_" + self.workload.replace("-", "_"))()
        self.rng.shuffle(block)
        return block

    # -- search-scan ------------------------------------------------------
    def _eps(self, lo_exp, hi_exp):
        return 10.0 ** self.rng.uniform(lo_exp, hi_exp)

    def _rotation_search(self, axis):
        kappa_max = _lin_int(self._u("rot_kappa"), 10_000, 50_000)
        theta = self.rng.uniform(0.0, 2.0 * math.pi)
        return {"kind": "cli", "argv": [
            "search", "--target", "r" + axis, "--theta", _num(theta),
            "--eps", _num(self._eps(-4, -2)), "--kappa-max", str(kappa_max)]}

    def _cphase_search(self, cz):
        kp_max = _lin_int(self._u("cp_kp"), 6, 12)
        n_max = _lin_int(self._u("cp_n"), 200, 500)
        argv = ["search", "--target", "cz" if cz else "cphase"]
        if not cz:
            argv += ["--theta", _num(self.rng.uniform(0.0, 2.0 * math.pi))]
        return {"kind": "cli", "argv": argv + [
            "--eps", _num(self._eps(-4, -2)),
            "--kp-max", str(kp_max), "--n-max", str(n_max)]}

    def _hadamard_search(self):
        kappa_max = _lin_int(self._u("had_kappa"), 500, 2000)
        return {"kind": "cli", "argv": [
            "search", "--target", "hadamard", "--eps", _num(self._eps(-3, -1)),
            "--kappa-max", str(kappa_max)]}

    def _su2(self):
        return {"kind": "su2", "target": _haar_su2_target(self.rng),
                "eps": self._eps(-4, -2),
                "kappa_max": _lin_int(self._u("su2_kappa"), 10_000, 50_000)}

    def _block_search_scan(self):
        return [self._rotation_search("x"), self._rotation_search("y"),
                self._rotation_search("x"), self._rotation_search("y"),
                self._cphase_search(False), self._cphase_search(True),
                self._hadamard_search(), self._hadamard_search(),
                self._su2(), self._su2()]

    # -- oracle-verify ----------------------------------------------------
    def _oracle(self, qubits, T):
        if qubits == 1:
            loop = [_unit_axis(self.rng), self.rng.randint(1, 10)]
        else:
            kp, km = self.rng.choice(_admissible_pairs(10))
            loop = [kp, km, self.rng.randint(1, 10)]
        return {"kind": "oracle", "loop": loop, "T": T, "steps": RK4_STEPS}

    def _block_oracle_verify(self):
        # One sixth one-qubit (4 x 4, cheaper RK4 steps): the median and p90
        # latencies then fall well inside the two-qubit cluster, not in the
        # gap between the two clusters, where they would jump with noise.
        return ([self._oracle(1, 1.0), self._oracle(1, 10.0)]
                + [self._oracle(2, T) for T in (1.0, 10.0) * 5])

    # -- gate-build -------------------------------------------------------
    def _winding(self, key, lo=1, hi=None):
        return _log_int(self._u(key), lo, self.max_winding if hi is None else hi)

    def _two_qubit_windings(self):
        kp = self._winding("kp", 1, self.max_winding - 1)
        km_hi = min(3 * kp - 1, self.max_winding)
        km = _lin_int(self.rng.random(), kp + 1, km_hi)
        return kp, km, self._winding("kprime")

    def _axis_arg(self):
        # "--n=v" form: argparse would read a leading "-0.3,..." as an option.
        return "--n=" + ",".join(_num(x) for x in _unit_axis(self.rng))

    def _t_list(self):
        count = self.rng.randint(1, 10)
        return ",".join(_num(10.0 ** self.rng.uniform(-1.0, 3.0)) for _ in range(count))

    def _block_gate_build(self):
        jobs = []
        for _ in range(2):
            jobs.append(["one-qubit", self._axis_arg(),
                         "--kappa", str(self._winding("kappa"))])
            kp, km, kpr = self._two_qubit_windings()
            jobs.append(["two-qubit", "--kp", str(kp), "--km", str(km), "--kprime", str(kpr)])
        kp, km, kpr = self._two_qubit_windings()
        jobs.append(["audit", "--kp", str(kp), "--km", str(km), "--kprime", str(kpr)])
        jobs.append(["audit", "--kp", str(self._winding("jz_kp")),
                     "--kprime", str(self._winding("jz_kprime")), "--j-zero"])
        jobs.append(["sweep", self._axis_arg(),
                     "--kappa", str(self._winding("sweep_kappa")), "--T", self._t_list()])
        kp, km, kpr = self._two_qubit_windings()
        jobs.append(["sweep", "--kp", str(kp), "--km", str(km), "--kprime", str(kpr),
                     "--T", self._t_list()])
        for _ in range(2):
            fig = self.rng.choice(["fig2", "fig3", "fig4"])
            extra = ["--caption-convention"] if fig == "fig3" and self.rng.random() < 0.5 else []
            jobs.append(["figure", fig] + extra)
            jobs.append(["search", "--target", "rx",
                         "--theta", _num(self.rng.uniform(0.0, 2.0 * math.pi)),
                         "--eps", _num(self._eps(-3, -1)),
                         "--kappa-max", str(self.rng.randint(1, 200))])
        return [{"kind": "cli", "argv": argv} for argv in jobs]


WARMUP = {
    "search-scan": {"kind": "cli", "argv": [
        "search", "--target", "rx", "--theta", "1.0", "--kappa-max", "10000"]},
    "oracle-verify": {"kind": "oracle", "loop": [2, 3, 1], "T": 10.0, "steps": RK4_STEPS},
    "gate-build": {"kind": "cli", "argv": ["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1"]},
}
