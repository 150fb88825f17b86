"""Golden corpus: one sha256 per request class over a seeded set of holonome requests.

    PYTHONPATH=src python tools/golden.py         # "<class> <requests> <sha256>" lines
    python tools/golden.py --diff TREE_A TREE_B   # the lines of both source trees; exit 1 if any differ

A CLI request runs in process through ``holonome.cli.run`` in an empty working
directory, and its digest covers the exit code, stdout, stderr and every file it
wrote; a library request digests its result, floats as hex and arrays as bytes.
The corpus: every subcommand, windings log-spread up to MAX_WINDING (100
requests each of ``one-qubit`` and ``two-qubit``, whose largest windings pin
the leakage verdicts near their 1e-12 tolerance), rejected requests, every
``holonome ...`` line of this tree's README.md, line-search
edges (bounds 1, 2 and MAX_WINDING, targets on a lattice point, steps at 0.6 of
2 pi and within 1e-9 of pi), controlled-phase scan edges (exact ties at theta = 0,
theta = +-1e6 and +-1.7e308, kappa_+ bound 1 with 10^7 repetitions, and a scan of
MAX_SCAN_POINTS points), and the adiabatic library on seeded loops (one and
two dimers, couplings 0.1 to 10): ``lib propagators`` (exact and sweep
propagators, windings up to MAX_WINDING and T up to the model's ``_t_max``, and
``holonomy_fidelity`` of each), ``lib sweep scores`` (the sweep's fidelity and
leakage on the same loops) and ``lib rk4`` (``ode_propagator`` at 1, 10 and 1000
steps, windings up to 1000, T from 0.1 to 10), ``files``: successful requests
that write ``--out`` and ``--csv`` files by relative paths, and ``couplings``: sweep
requests at couplings from the least double to MAX_COUPLING.  ``--diff`` runs this
script with each tree's ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _axis(rng) -> str:
    z = rng.uniform(-0.95, 0.95)
    phi, r = rng.uniform(0.0, 2.0 * math.pi), math.sqrt(1.0 - z * z)
    return "--n=" + ",".join(repr(v) for v in (r * math.cos(phi), r * math.sin(phi), z))


def _log_int(rng, lo: int, hi: int) -> int:
    return min(hi, max(lo, int(lo * (hi / lo) ** rng.random())))


def _times(rng) -> str:
    return ",".join(repr(10.0 ** rng.uniform(-1.0, 3.0)) for _ in range(rng.randint(1, 6)))


def _adiabatic_corpus(top: int):
    """More ``sweep`` requests, and the adiabatic library requests (class, (kind, args)):
    args are the loop's windings (and one dimer's axis), the couplings and the times, where
    "t_max" stands for the model's ``_t_max``."""
    rng = random.Random(20261019)
    reqs = []
    for _ in range(30):
        k = _log_int(rng, 1, top - 1)
        kp, km, kpr = str(k), str(rng.randint(k + 1, min(3 * k - 1, top))), str(_log_int(rng, 1, top))
        reqs += [("sweep", ["sweep", "--kp", kp, "--km", km, "--kprime", kpr, "--T", _times(rng)]),
                 ("sweep", ["sweep", _axis(rng), "--kappa", kpr, "--T", _times(rng)])]
    for i in range(40):
        for cls, bound in (("lib propagators", top), ("lib rk4", 1000)):
            couplings = tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(1 + i % 2))
            if i % 2:
                k = _log_int(rng, 1, bound - 1)
                loop = (k, rng.randint(k + 1, min(3 * k - 1, bound)), _log_int(rng, 1, bound))
            else:
                loop = (tuple(float(x) for x in _axis(rng)[4:].split(",")), _log_int(rng, 1, bound))
            if cls == "lib rk4":
                times = tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(2))
            else:
                times = tuple(10.0 ** rng.uniform(-1.0, 4.0) for _ in range(rng.randint(1, 5)))
                times += ("t_max",) if i % 3 == 0 else ()
                reqs.append(("lib sweep scores", ("sweep scores", (loop, couplings, times))))
            reqs.append((cls, (cls[4:], (loop, couplings, times))))
    return reqs


def _gate_corpus(top: int):
    """80 more ``one-qubit`` and ``two-qubit`` requests each, from their own seeded generator:
    windings log-spread up to MAX_WINDING (both ends included), which pin the leakage verdicts
    (their block rounds to about 1e-12 at the largest windings)."""
    rng = random.Random(20261020)
    reqs = []
    for i in range(80):
        k = top // 3 + 1 if i == 0 else _log_int(rng, 1, top // 3)
        km = top if i == 0 else rng.randint(k + 1, 3 * k - 1)
        kpr, kappa = (top if i == 1 else _log_int(rng, 1, top) for _ in range(2))
        rng.random(), rng.random()  # two couplings once: drawn to keep the later windings
        reqs += [("one-qubit", ["one-qubit", _axis(rng), "--kappa", str(kappa)]),
                 ("two-qubit", ["two-qubit", "--kp", str(k), "--km", str(km),
                                "--kprime", str(kpr)])]
    return reqs


def _files_corpus():
    """Successful requests that write files, by paths relative to the working directory."""
    sweeps = (["--n", "1,0,0", "--kappa", "3", "--T", "1,10,100"],
              ["--n", "0.6,0,0.8", "--kappa", "7", "--T", "0.5"],
              ["--kp", "2", "--km", "5", "--kprime", "3", "--T", "0.25,40,2000"])
    reqs = [["sweep", *s, "--csv", "rows.csv", "--out", "sweep.json"] for s in sweeps]
    reqs += [["sweep", *sweeps[0], "--csv", "rows.csv"], ["sweep", *sweeps[2], "--out", "s.json"]]
    reqs += [["figure", fig, "--csv", f"{fig}.csv"] for fig in ("fig2", "fig3", "fig4")]
    reqs += [["figure", "fig3", "--caption-convention", "--csv", "f.csv"],
             ["one-qubit", "--n", "1,0,0", "--kappa", "1", "--out", "gate.json"],
             ["one-qubit", "--n", "0,0.6,0.8", "--kappa", "12345", "--out", "g.json"],
             ["two-qubit", "--kp", "2", "--km", "3", "--kprime", "1", "--out", "cz.json"],
             ["search", "--target", "hadamard", "--eps", "1e-3", "--out", "h.json"],
             ["audit", "--kp", "4", "--km", "9", "--kprime", "2", "--out", "a.json"]]
    return [("files", argv) for argv in reqs]


def _couplings_corpus():
    """Sweep requests at couplings from the least double to MAX_COUPLING, where T exceeds
    the time bound.  The gate commands take no coupling."""
    reqs = []
    for j in ("5e-324", "1e-320", "1e-300", "1", "1e150"):
        reqs += [["sweep", "--n", "0.6,0,0.8", "--kappa", "7", "--j1", j, "--T", "0.5,40"],
                 ["sweep", "--kp", "2", "--km", "5", "--kprime", "3", "--j1", j, "--j2", j,
                  "--T", "0.5,40"]]
    return [("couplings", argv) for argv in reqs]


def corpus(top: int):
    """(class, request) pairs: a request is an argv list, or a (function name, args) tuple."""
    rng = random.Random(20081223)
    reqs = []
    for _ in range(20):
        k = _log_int(rng, 1, top - 1)
        kp, km, kpr = str(k), str(rng.randint(k + 1, min(3 * k - 1, top))), str(_log_int(rng, 1, top))
        reqs += [("one-qubit", ["one-qubit", _axis(rng), "--kappa", str(_log_int(rng, 1, top))]),
                 ("two-qubit", ["two-qubit", "--kp", kp, "--km", km, "--kprime", kpr]),
                 ("audit", ["audit", "--kp", kp, "--km", km, "--kprime", kpr]),
                 ("audit", ["audit", "--kp", kp, "--kprime", kpr, "--j-zero"]),
                 ("sweep", ["sweep", "--kp", kp, "--km", km, "--kprime", kpr, "--T", _times(rng)]),
                 ("sweep", ["sweep", _axis(rng), "--kappa", kpr, "--T", _times(rng)])]
    for _ in range(50):
        kappa_max, eps = str(_log_int(rng, 1, top)), repr(10.0 ** rng.uniform(-9, -1))
        reqs += [(f"search {target}", ["search", "--target", target, "--theta",
                                       repr(rng.uniform(-7.0, 7.0)), "--eps", eps,
                                       "--kappa-max", kappa_max]) for target in ("rx", "ry")]
        reqs.append(("search hadamard", ["search", "--target", "hadamard", "--eps", eps,
                                         "--kappa-max", kappa_max]))
    for _ in range(8):
        bounds = ["--eps", "1e-3", "--kp-max", str(rng.randint(1, 30)),
                  "--n-max", str(_log_int(rng, 1, 300))]
        reqs += [("search cphase", ["search", "--target", "cphase", "--theta",
                                    repr(rng.uniform(-7.0, 7.0))] + bounds),
                 ("search cz", ["search", "--target", "cz"] + bounds)]
    reqs += [("figure", ["figure", fig] + extra) for fig in ("fig2", "fig3", "fig4")
             for extra in ([], ["--csv", "out.csv"])]
    reqs.append(("figure", ["figure", "fig3", "--caption-convention"]))
    # Line-search edges through the CLI, whose x and y steps are pi sqrt2.
    for kappa_max in (1, 2, top - 1, top):
        for theta in (0.0, 1e-300, -6.28318530717959, 1e8, (7 * math.pi) * math.sqrt(2.0),
                      (12345 * math.pi) * math.sqrt(2.0)):
            reqs.append(("search edges", ["search", "--target", "rx", "--theta", repr(theta),
                                          "--eps", "1e-3", "--kappa-max", str(kappa_max)]))
    # Controlled-phase scan edges: exact ties at theta = 0 (2 J(7, 9) = 4 pi), targets whose
    # fraction of a period the fixed-point filter cannot resolve, rows far beyond one kernel
    # block, and a scan of MAX_SCAN_POINTS points.
    for theta, kp_max, n_max in (("0", 12, 500), ("1e6", 12, 500), ("-1e6", 12, 500),
                                 ("1.7e308", 12, 500), ("-1.7e308", 12, 500),
                                 ("0.7", 1, 10**7), ("0.7", 100, 10**4)):
        reqs.append(("search cphase edges", ["search", "--target", "cphase", f"--theta={theta}",
                                             "--eps", "1e-9", "--kp-max", str(kp_max),
                                             "--n-max", str(n_max)]))
    for args in ("one-qubit --n 2,0,0 --kappa 1", "one-qubit --n 0,0,1 --kappa 1",
                 f"one-qubit --n 1,0,0 --kappa {top + 1}", "two-qubit --kp 2 --km 2 --kprime 1",
                 "two-qubit --kp 3 --km 2 --kprime 1", "two-qubit --kp 2 --km 7 --kprime 1",
                 "audit --kp 0 --j-zero", "audit --kp 2 --kprime 0 --j-zero",
                 f"search --target rx --theta 1 --kappa-max {top + 1}",
                 "search --target cz --kp-max 1001", "sweep --kp 2 --T 1"):
        reqs.append(("rejected", args.split()))
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("holonome "):
            reqs.append(("readme", line.split("#")[0].split()[1:]))
    # Line-search edges in the library: steps at 0.6 of 2 pi and at pi (1 + 1e-9).
    step_06 = (math.sqrt(0.44), 0.0, math.sqrt(0.56))
    step_pi = (math.sqrt(1.0 - (2.0 - (1.0 + 1e-9) ** 2)), 0.0, math.sqrt(2.0 - (1.0 + 1e-9) ** 2))
    for axis, theta, kappa_max in ((step_06, -6.28318530717959, 3815), (step_06, 0.3, 1000),
                                   (step_06, -2.0, 60000), (step_pi, 1e8, 60000),
                                   (step_pi, 1.0, 60000), ((0.0, 1.0, 0.0), 1e-300, 1)):
        reqs.append(("lib search_rotation", ("search_rotation", (axis, theta, 1e-3, kappa_max))))
    for _ in range(6):  # Haar-random SU(2) targets
        g = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)]
        a, b = (z / math.hypot(*map(abs, g)) for z in g)
        target = [[a, -b.conjugate()], [b, a.conjugate()]]
        reqs.append(("lib synthesize_su2", ("synthesize_su2", (target, 1e-3, _log_int(rng, 1, top)))))
    return (reqs + _adiabatic_corpus(top) + _gate_corpus(top) + _files_corpus()
            + _couplings_corpus())


def _value(obj) -> str:
    """A deterministic text of a result: floats as hex, arrays as bytes, objects by fields."""
    if isinstance(obj, float):
        return obj.hex()
    if hasattr(obj, "tobytes"):
        return f"{obj.dtype}{obj.shape}{obj.tobytes().hex()}"
    if hasattr(obj, "__dataclass_fields__"):
        obj = {"class": type(obj).__name__} | {k: getattr(obj, k) for k in obj.__dataclass_fields__}
    if isinstance(obj, dict):
        return "{" + ",".join(f"{k}:{_value(v)}" for k, v in sorted(obj.items())) + "}"
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_value(v) for v in obj) + ")"
    return repr(obj)


def _adiabatic(kind: str, loop, couplings, times):
    """One adiabatic library request: exact and sweep propagators with ``holonomy_fidelity``
    of each, the sweep's scores, or RK4 propagators at 1, 10 and 1000 steps."""
    from holonome import adiabatic, deformation, holonomy, spin_model

    if len(loop) == 2:
        gen = deformation.one_qubit_generator(*loop)
        model = spin_model.build_one_dimer(couplings[0], couplings[0])
    else:
        gen = deformation.two_qubit_generator(*loop)
        model = spin_model.build_two_dimer(*couplings)
    gate = holonomy.holonomy(holonomy.connection_on_ground_space(gen, model))
    ts = [adiabatic._t_max(model) if t == "t_max" else t for t in times]
    if kind == "rk4":
        return [adiabatic.ode_propagator(model, gen, T, n) for T in ts for n in (1, 10, 1000)]
    runs = adiabatic.adiabatic_sweep(model, gen, gate, ts)
    if kind == "sweep scores":
        return [(run.fidelity, run.leakage) for run in runs]
    exact = [adiabatic.exact_propagator(model, gen, T) for T in ts]
    return [(u, adiabatic.holonomy_fidelity(u, gate, model, T)) for u, T in zip(exact, ts)] + [
        (run.T, run.propagator, run.dynamical_phase,
         adiabatic.holonomy_fidelity(run.propagator, gate, model, run.T)) for run in runs]


def run(request) -> bytes:
    from holonome import cli, synthesis

    if isinstance(request, tuple):
        name, args = request
        if hasattr(synthesis, name):
            return _value(getattr(synthesis, name)(*args)).encode()
        return _value(_adiabatic(name, *args)).encode()
    out, err, here = io.StringIO(), io.StringIO(), os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            code = cli.run(request, out, err)
        finally:
            os.chdir(here)
        files = b"".join(name.encode() + b"\0" + (Path(work) / name).read_bytes() + b"\0"
                         for name in sorted(os.listdir(work)))
    return b"\0".join([str(code).encode(), out.getvalue().encode(), err.getvalue().encode(), files])


def digests() -> list:
    from holonome.deformation import MAX_WINDING

    classes = {}
    for name, request in corpus(MAX_WINDING):
        entry = classes.setdefault(name, [0, hashlib.sha256()])
        entry[0] += 1
        entry[1].update(repr(request).encode() + b"\0" + run(request) + b"\0\0")
    return [f"{name} {count} {sha.hexdigest()}" for name, (count, sha) in classes.items()]


def main(argv) -> int:
    if not argv:
        print("\n".join(digests()))
        return 0
    if argv[0] != "--diff" or len(argv) != 3:
        print("usage: golden.py [--diff TREE_A TREE_B]", file=sys.stderr)
        return 2
    outs = [subprocess.run([sys.executable, __file__], check=True, capture_output=True, text=True,
                           env=dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
                           ).stdout.splitlines() for tree in argv[1:]]
    for a, b in zip(*outs):
        print(f"same     {a}" if a == b else f"DIFFERS  {a}\n     vs  {b}")
    return int(outs[0] != outs[1])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
