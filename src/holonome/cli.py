"""Command-line surface: gate construction, searches, sweeps, figures, audits.

Each ``cmd_*(args)`` computes only: it returns its report and its CSV table
(``None`` for an output it does not make), and ``run`` writes them, all or
nothing (``_write_outputs``).  Exit codes: 0 success, 1 domain error, an option
the request would not use, or a failed file write (one ``error:`` line on
stderr, nothing on stdout, and no file created or changed), 2 usage error.  All
outputs are deterministic for a given numpy and OpenBLAS kernel; angles are
accepted in radians only.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import os
import re
import sys

import numpy as np

from holonome import adiabatic, deformation, holonomy, reporting, spin_model, synthesis
from holonome.errors import DomainError
from holonome.matrix_kernel import phase_invariant_distance


def _parse_vector(text: str):
    try:
        parts = [float(p) for p in text.split(",")]
    except ValueError:
        raise DomainError(f"cannot parse vector {text!r}") from None
    if len(parts) != 3:
        raise DomainError("axis must have exactly three components")
    if not all(np.isfinite(parts)):
        raise DomainError(f"axis components must be finite, got {text!r}")
    return tuple(parts)


def _parse_floats(text: str):
    try:
        return [float(p) for p in text.split(",")]
    except ValueError:
        raise DomainError(f"cannot parse list {text!r}") from None


def _reject_unused(args, dests, context: str) -> None:
    """DomainError naming the first option in ``dests`` that was given."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value is not False:
            raise DomainError(f"--{dest.replace('_', '-')} is not used {context}")


def _gate_checks(loop, gamma) -> dict:
    """A gate report's verdict fields, from the loop's one connection and the closed-form
    gamma: closure, analytic-vs-numeric distance and leakage.  The loop alone fixes the
    connection, so no model is built."""
    conn = holonomy._connection(loop)
    numeric = holonomy.holonomy(conn).gamma
    return {
        "closure_residual": loop.closure_residual,
        "analytic_vs_numeric_distance": phase_invariant_distance(gamma, numeric),
        "leakage_audit_passed": holonomy.leakage_audit(conn).passed,
    }


def cmd_one_qubit(args):
    loop = deformation.one_qubit_generator(_parse_vector(args.n), args.kappa)
    gamma = holonomy.analytic_one_qubit_gate(loop).gamma
    inputs = {"n": list(loop.n), "kappa": loop.kappa}
    outputs = {"theta_kappa": loop.theta_kappa, "m": list(loop.m),
               "gamma": reporting.matrix_payload(gamma), **_gate_checks(loop, gamma)}
    return reporting.build_report("holonomy", inputs, outputs), None


def cmd_two_qubit(args):
    loop = deformation.two_qubit_generator(args.kp, args.km, args.kprime)
    fact = holonomy.analytic_two_qubit_gate(loop)
    inputs = {"kappa_plus": args.kp, "kappa_minus": args.km, "kappa_prime": args.kprime}
    outputs = {"coupling_j": loop.coupling_j, "n2z": loop.n2z,
               "controlled_phase_angle": 2.0 * loop.coupling_j,
               "gamma_exact": reporting.matrix_payload(fact.gamma_exact),
               "factorization_discrepancy": fact.discrepancy,
               **_gate_checks(loop, fact.gamma_exact)}
    return reporting.build_report("holonomy", inputs, outputs), None


# The search options each target does not read.
_UNUSED_BY_TARGET = {
    "hadamard": ("theta", "kp_max", "n_max"),
    "rx": ("kp_max", "n_max"),
    "ry": ("kp_max", "n_max"),
    "cphase": ("kappa_max",),
    "cz": ("theta", "kappa_max"),
}


def cmd_search(args):
    target = args.target
    _reject_unused(args, _UNUSED_BY_TARGET[target], f"by target {target}")
    if target in ("rx", "ry", "cphase") and args.theta is None:
        raise DomainError(f"--theta is required for target {target}")
    kappa_max = 500 if args.kappa_max is None else args.kappa_max
    kp_max = 10 if args.kp_max is None else args.kp_max
    n_max = 500 if args.n_max is None else args.n_max
    inputs = {"target": target, "eps": args.eps}
    if target == "hadamard":
        inputs["kappa_max"] = kappa_max
        result = synthesis.search_hadamard(args.eps, kappa_max)
    elif target in ("rx", "ry"):
        inputs.update({"theta": args.theta, "kappa_max": kappa_max})
        result = synthesis.search_rotation(target[-1], args.theta, args.eps, kappa_max)
    else:
        theta = np.pi / 2.0 if target == "cz" else args.theta
        inputs.update({"theta": theta, "kp_max": kp_max, "n_max": n_max})
        result = synthesis.search_controlled_phase(theta, args.eps, kp_max, n_max)
    payload = {
        "params": dict(result.params),
        "gate_distance": result.gate_distance,
        "exhausted": result.exhausted,
        "gate": reporting.matrix_payload(result.gate),
    }
    if target != "hadamard":  # its exhaustion is judged on the gate distance
        payload["angle_error"] = result.angle_error
    return reporting.build_report("search", inputs=inputs, outputs=payload), None


def cmd_sweep(args):
    # Both files would be staged to one path, and the report would replace the table.
    if (args.csv and args.out and not _in_place(args.out)
            and os.path.realpath(args.csv) == os.path.realpath(args.out)):
        raise DomainError("--csv and --out name the same file")
    t_list = _parse_floats(args.T)
    if args.n is not None:
        _reject_unused(args, ("kp", "km", "kprime", "j2"), "with --n")
        if args.kappa is None:
            raise DomainError("sweep needs --kappa with --n")
        loop = deformation.one_qubit_generator(_parse_vector(args.n), args.kappa)
        model = spin_model.build_one_dimer(args.j1, args.j1)
        inputs = {"n": list(loop.n), "kappa": loop.kappa, "T": t_list, "j1": args.j1}
    elif args.kp is not None:
        _reject_unused(args, ("kappa",), "with --kp")
        if args.km is None:
            raise DomainError("sweep needs --km with --kp")
        kprime = 1 if args.kprime is None else args.kprime
        loop = deformation.two_qubit_generator(args.kp, args.km, kprime)
        j2 = 1.0 if args.j2 is None else args.j2
        model = spin_model.build_two_dimer(args.j1, j2)
        inputs = {"kappa_plus": args.kp, "kappa_minus": args.km,
                  "kappa_prime": kprime, "T": t_list, "j1": args.j1, "j2": j2}
    else:
        raise DomainError("sweep needs either --n/--kappa or --kp/--km/--kprime")
    conn = holonomy.connection_on_ground_space(loop, model)
    gate = holonomy.holonomy(conn)
    runs = adiabatic.adiabatic_sweep(model, loop, gate, t_list)
    rows = [(run.T, run.fidelity, run.leakage) for run in runs]
    report = reporting.build_report("sweep", inputs, {"rows": [list(r) for r in rows]})
    return report, (["T", "fidelity", "leakage"], rows) if args.csv else None


def cmd_figure(args):
    if args.which != "fig3":
        _reject_unused(args, ("caption_convention",), f"by {args.which}")
    if args.csv:
        _reject_unused(args, ("out",), "with --csv")
    header, rows = synthesis.figure_table(
        args.which, caption_convention=args.caption_convention
    )
    if args.csv:
        return None, (header, rows)
    inputs = {"which": args.which, "caption_convention": args.caption_convention}
    outputs = {"header": header, "rows": [list(r) for r in rows]}
    return reporting.build_report("figure", inputs, outputs), None


def cmd_audit(args):
    if args.j_zero:
        _reject_unused(args, ("km",), "with --j-zero")
        loop = deformation.TwoQubitLoop.with_forced_zero_coupling(args.kp, args.kprime)
        inputs = {"kappa_plus": args.kp, "kappa_prime": args.kprime, "j_zero": True}
    else:
        if args.km is None:
            raise DomainError("audit needs --km unless --j-zero is given")
        loop = deformation.two_qubit_generator(args.kp, args.km, args.kprime)
        inputs = {"kappa_plus": args.kp, "kappa_minus": args.km,
                  "kappa_prime": args.kprime, "j_zero": False}
    fact = holonomy.analytic_two_qubit_gate(loop)
    return reporting.build_report("audit", inputs, reporting.audit_payload(fact)), None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holonome",
        description="Holonomic quantum gates from isospectral Ising-dimer deformations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("one-qubit", help="construct a one-qubit holonomy gate")
    p.add_argument("--n", required=True, help="loop axis, e.g. 1,0,0")
    p.add_argument("--kappa", type=int, required=True, help="winding number")
    p.add_argument("--out")
    p.set_defaults(func=cmd_one_qubit)

    p = sub.add_parser("two-qubit", help="construct a two-qubit holonomy gate")
    p.add_argument("--kp", type=int, required=True, help="kappa_plus")
    p.add_argument("--km", type=int, required=True, help="kappa_minus")
    p.add_argument("--kprime", type=int, required=True, help="kappa_prime")
    p.add_argument("--out")
    p.set_defaults(func=cmd_two_qubit)

    p = sub.add_parser("search", help="approximate a target gate")
    p.add_argument("--target", required=True,
                   choices=["hadamard", "rx", "ry", "cphase", "cz"])
    p.add_argument("--theta", type=float, help="target angle in radians")
    p.add_argument("--eps", type=float, default=0.05)
    p.add_argument("--kappa-max", type=int, dest="kappa_max")
    p.add_argument("--kp-max", type=int, dest="kp_max")
    p.add_argument("--n-max", type=int, dest="n_max")
    p.add_argument("--out")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("sweep", help="adiabatic convergence sweep over total time")
    p.add_argument("--T", required=True, help="comma-separated list of total times")
    p.add_argument("--n", help="one-qubit loop axis")
    p.add_argument("--kappa", type=int, help="one-qubit winding number")
    p.add_argument("--kp", type=int)
    p.add_argument("--km", type=int)
    p.add_argument("--kprime", type=int)
    p.add_argument("--j1", type=float, default=1.0)
    p.add_argument("--j2", type=float)
    p.add_argument("--csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("figure", help="emit figure data")
    p.add_argument("which", choices=["fig2", "fig3", "fig4"])
    p.add_argument("--csv")
    p.add_argument("--out")
    p.add_argument("--caption-convention", action="store_true",
                   dest="caption_convention")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("audit", help="audit the two-qubit factorization claim")
    p.add_argument("--kp", type=int, required=True)
    p.add_argument("--km", type=int)
    p.add_argument("--kprime", type=int, default=1)
    p.add_argument("--j-zero", action="store_true", dest="j_zero",
                   help="force the inter-dimer coupling to zero (commuting limit)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_audit)

    # No option looks like a number, so -1e-3, -.5 and -0.6,0.8,0 are values, not options
    # (argparse up to Python 3.12 takes only -12 and -1.5 for numbers).
    for each in (parser, *sub.choices.values()):
        each._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def _in_place(path) -> bool:
    """Whether an output is written in place: stdout (None), or a path that exists but is
    not a regular file (a device or a pipe)."""
    return path is None or os.path.exists(path) and not os.path.isfile(path)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``run`` uses, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _write_outputs(outputs, stdout) -> None:
    """Write rendered (path, text) pairs, all or nothing; path None is stdout.

    Each file goes to a temporary sibling, opened with "x" (so with default
    permissions), and the siblings replace their paths once all are written; a
    failure removes them.  A directory is refused first.  stdout, and a path
    that exists but is not a regular file (a device or a pipe), are written
    last, in place.
    """
    staged, in_place = [], []
    try:
        for i, (path, text) in enumerate(outputs):
            if path is not None and os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            if _in_place(path):
                in_place.append((path, text))
                continue
            # A name of its own, so that a path at the file name length limit still works.
            tmp = os.path.join(os.path.dirname(path), f".holonome-{os.getpid()}-{i}.tmp")
            try:
                fh = open(tmp, "x", newline="\n")
            except OSError as exc:  # named by the path asked for, not by its sibling
                raise OSError(exc.errno, exc.strerror, path) from None
            with fh:
                staged.append((fh.name, path))
                fh.write(text)
        for tmp, path in staged:
            os.replace(tmp, path)
        staged.clear()
    finally:
        for tmp, _ in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
    for path, text in in_place:
        if path is None:
            stdout.write(text)
        else:
            with open(path, "w", newline="\n") as fh:
                fh.write(text)


def run(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    try:
        # Usage errors and --help go to the streams of this call.
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        report, table = args.func(args)
        # Rendered before any I/O: a value with no JSON or CSV form writes nothing.
        outputs = [] if table is None else [(args.csv, reporting.csv_lines(*table))]
        if report is not None:
            outputs.append((args.out, reporting.dumps_report(report)))
        _write_outputs(outputs, stdout)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
