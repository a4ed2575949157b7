"""Command-line front end: lattice, sample, count, algebra, experiment, verify.

Exit codes: 0 success, 1 hard error, 2 validation/config error.
All randomness flows from explicit seeds; nothing is time-seeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import algebra, experiments, field, gridio, lattice, nodal
from .config import load_config
from .errors import ArwError, ValidationError


def _json_dump(obj, path: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    print(text)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


# ---------------------------------------------------------------- lattice

def cmd_lattice(args) -> int:
    shell = lattice.enumerate_shell(args.dim, args.n)
    payload: dict = {"d": args.dim, "n": args.n, "dim_HL": shell.dim_HL}
    payload["orthogonality"] = None if shell.is_empty else [
        [int(v) for v in row] for row in lattice.orthogonality_sums(shell)
    ]
    payload["equidistribution"] = None
    # the n=0 shell is the origin alone, which has no direction on the sphere
    if not shell.is_empty and args.n > 0:
        report = lattice.equidistribution_report(shell)
        payload["equidistribution"] = {
            "moment_deviations": {
                ",".join(map(str, alpha)): dev for alpha, dev in report.moment_deviations.items()
            },
            "max_dev4": report.max_dev4,
            "angular_star_discrepancy": report.angular_star_discrepancy,
        }
    if args.points:
        payload["points"] = [[int(v) for v in row] for row in shell.points]
    _json_dump(payload, args.report)
    return 0


# ---------------------------------------------------------------- sample

def cmd_sample(args) -> int:
    # both checks are cheap; enumerating a large shell can take minutes
    lattice.check_shell_args(args.dim, args.n)
    field.require_alias_free(args.n, args.grid)
    shell = lattice.enumerate_shell(args.dim, args.n)
    sample = field.sample_coefficients(shell, args.seed, args.trial)
    grid = field.eval_grid(sample, args.grid)
    gridio.write_grid(args.out, grid)
    return 0


# ---------------------------------------------------------------- count

def cmd_count(args) -> int:
    grid = gridio.read_grid(getattr(args, "in"))
    field.require_alias_free(grid.n, grid.M)  # before the shell is enumerated
    shell = lattice.enumerate_shell(grid.d, grid.n)
    sample = field.sample_coefficients(shell, grid.seed, grid.trial_index)
    regen = field.eval_grid(sample, grid.M)
    scale = max(1.0, float(np.max(np.abs(regen.values))))
    if float(np.max(np.abs(regen.values - grid.values))) > 1e-9 * scale:
        raise ValidationError("grid file does not match its recorded seed provenance")
    summary = nodal.analyze(sample, grid.M, auto_refine=args.auto_refine)
    # every summary field but the vertex margin mu, arrays as lists
    payload = {}
    for f in dataclasses.fields(summary):
        value = getattr(summary, f.name)
        if f.name != "mu":
            payload[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    _json_dump(payload, args.report)
    return 0


# ---------------------------------------------------------------- algebra

def cmd_algebra(args) -> int:
    payload: dict = {}
    ok = True
    if args.verify_identities:
        report = algebra.verify_csd_identities(args.dmax)
        payload["identities"] = {"d_max": report.d_max, "passed": report.passed}
        ok = ok and report.passed
    if args.jacobian_example:
        d, D = args.jacobian_example
        passed = algebra.jacobian_example_holds(d, D)
        payload["jacobian_example"] = {"d": d, "D": D, "passed": passed}
        ok = ok and passed
    payload["passed"] = ok
    _json_dump(payload, args.report)
    return 0 if ok else 1


# ---------------------------------------------------------------- experiment

def run_config(path: str, overrides=None) -> int:
    """Run the experiment a config file describes; each attribute of
    `overrides` that names a config key and is not None replaces it."""
    config = load_config(path)
    if overrides is not None:
        updates = {
            f.name: getattr(overrides, f.name)
            for f in dataclasses.fields(config)
            if getattr(overrides, f.name, None) is not None
        }
        config = dataclasses.replace(config, **updates).validate()
    experiments.run_experiment(config)
    return 0


def cmd_experiment(args) -> int:
    return run_config(args.config, overrides=args)


# ---------------------------------------------------------------- verify

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _box_count(d: int, n: int) -> int:
    bound = math.isqrt(n)
    total = 0
    for point in itertools.product(range(-bound, bound + 1), repeat=d):
        if sum(v * v for v in point) == n:
            total += 1
    return total


# faults `verify_suite` can inject, by name
FAULTS = ("parseval",)


def verify_suite(fault: str | None = None) -> list[CheckResult]:
    """One-shot exact checks at small scale (< 60 s).

    `fault` injects a deliberate corruption into the data under test (not
    into the oracles) so the suite's sensitivity can be demonstrated:
    currently "parseval" perturbs one sampled coefficient before the norm
    comparison.  A name not in FAULTS raises ValidationError before any
    check runs.
    """
    if fault is not None and fault not in FAULTS:
        raise ValidationError(f"unknown fault {fault!r}; expected one of {FAULTS}")
    checks: list[CheckResult] = []

    def run(name: str, fn) -> None:
        try:
            detail = fn()
            checks.append(CheckResult(name, True, detail or "ok"))
        except Exception as exc:  # a failed check is a result, not a crash
            checks.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))

    def check_counts():
        scopes = [(2, 60), (3, 40), (4, 16), (5, 10)]
        for d, n_max in scopes:
            for n in range(1, n_max + 1):
                brute = _box_count(d, n)
                if lattice.representation_count(d, n) != brute:
                    raise AssertionError(f"representation_count({d},{n}) != {brute}")
                if lattice.enumerate_shell(d, n).dim_HL != brute:
                    raise AssertionError(f"enumerate_shell({d},{n}) count != {brute}")
        return "box oracle matched for d<=5"

    def check_jacobi():
        for n in range(1, 60, 2):
            if lattice.representation_count(4, n) != lattice.jacobi_four_square_count(n):
                raise AssertionError(f"Jacobi mismatch at n={n}")
        return "divisor formula matched for odd n<60"

    def check_legendre():
        for n in range(1, 60):
            empty = lattice.representation_count(3, n) == 0
            if empty != lattice.legendre_three_square_excluded(n):
                raise AssertionError(f"Legendre mismatch at n={n}")
        return "4^a(8b+7) criterion matched for n<60"

    def check_orthogonality():
        for d, n_max in ((2, 60), (3, 25)):
            for n in range(1, n_max + 1):
                shell = lattice.enumerate_shell(d, n)
                if shell.is_empty:
                    continue
                sums = lattice.orthogonality_sums(shell)
                expect = np.eye(d, dtype=np.int64) * (n * shell.dim_HL // d)
                if n * shell.dim_HL % d or not np.array_equal(sums, expect):
                    raise AssertionError(f"orthogonality failed at d={d}, n={n}")
        return "second-moment identity exact"

    def check_parseval():
        rng_pts = np.random.default_rng(7)
        for d, n in ((2, 25), (3, 9)):
            shell = lattice.enumerate_shell(d, n)
            for trial in range(3):
                sample = field.sample_coefficients(shell, 2024, trial)
                if fault == "parseval":
                    # corrupt the grid-side data; the coefficient side keeps
                    # the pristine sample, so the comparison must trip
                    a = np.asarray(sample.a).copy()
                    a[0] += 1e-3
                    sample = field.sample_from_arrays(shell, a, sample.b)
                grid = field.eval_grid(sample, field.min_alias_free_M(n) + 3)
                coef, grid_norm = field.parseval_norm(
                    field.sample_coefficients(shell, 2024, trial), grid
                )
                if abs(coef - grid_norm) > 1e-9 * max(coef, 1e-300):
                    raise AssertionError(f"Parseval broke at d={d}, n={n}, trial={trial}")
                idx = (rng_pts.integers(0, grid.M, size=(20, d))).astype(int)
                grid_vals = grid.values[tuple(idx.T)]
                direct_at_idx = field.eval_points(
                    field.sample_coefficients(shell, 2024, trial), idx / grid.M
                )
                if np.max(np.abs(grid_vals - direct_at_idx)) > 1e-9:
                    raise AssertionError("FFT/direct mismatch")
        return "norms and FFT/direct agree to 1e-9"

    def check_eigenfunction():
        shell = lattice.enumerate_shell(2, 65)
        sample = field.sample_coefficients(shell, 99, 0)
        rng_pts = np.random.default_rng(5)
        for x in rng_pts.random((10, 2)):
            f0 = field.eval_point(sample, x)
            trace = float(np.trace(field.hessian_at(sample, x)))
            if abs(trace + 4 * np.pi**2 * 65 * f0) > 1e-8 * (1 + abs(f0)) * 65:
                raise AssertionError("eigenfunction identity violated")
        return "trace(Hessian) = -4 pi^2 n f"

    def check_algebra():
        algebra.verify_csd_identities(8)  # raises IdentityFailure on a mismatch
        if not algebra.jacobian_example_holds(2, 2):
            raise AssertionError("Jacobian example mismatch")
        return "C/S identities and Jacobian product exact"

    def check_exponents():
        e2 = experiments.proof_exponents(2)
        if e2.a != 6 or e2.c_exponent != 15:
            raise AssertionError("d=2 exponents wrong")
        for d in range(2, 11):
            if not experiments.proof_exponents(d).satisfied:
                raise AssertionError(f"inequalities fail at d={d}")
        return "exponent system solves its inequalities for d<=10"

    def check_limiting_kernel():
        for r in (0.3, 1.7):
            closed = math.sin(2 * math.pi * r) / (2 * math.pi * r)
            if abs(field.limiting_kernel(3, [r, 0.0, 0.0]) - closed) > 1e-8:
                raise AssertionError("d=3 kernel != sinc")
        if field.limiting_kernel(2, [0.0, 0.0]) != 1.0:
            raise AssertionError("k(0) != 1")
        return "spherical average matches closed forms"

    def check_norm_tail():
        shell = lattice.enumerate_shell(2, 65)
        for trial in range(2000):
            if field.sample_coefficients(shell, 31337, trial).coef_norm() > 2.0:
                raise AssertionError(f"norm > 2 at trial {trial}")
        return "no norm above 2 in 2000 trials at dim 16"

    run("lattice_brute_force", check_counts)
    run("jacobi_divisor", check_jacobi)
    run("legendre_three_squares", check_legendre)
    run("orthogonality_identity", check_orthogonality)
    run("parseval_fft_direct", check_parseval)
    run("eigenfunction_identity", check_eigenfunction)
    run("algebra_identities", check_algebra)
    run("proof_exponents", check_exponents)
    run("limiting_kernel", check_limiting_kernel)
    run("norm_concentration", check_norm_tail)
    return checks


def cmd_verify(args) -> int:
    checks = verify_suite(fault=args.fault)
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  {status}  {c.detail}")
    return 0 if all(c.passed for c in checks) else 1


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="arw", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="enumerate a shell and its diagnostics")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", action="store_true", help="include the points in the output")
    p.add_argument("--report", default=None, help="also write the JSON to this path")
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("sample", help="sample a wave and write its grid")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trial", type=int, default=0)
    p.add_argument("--grid", type=int, required=True, metavar="M")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("count", help="nodal counts of a stored grid")
    p.add_argument("--in", dest="in", required=True)
    p.add_argument("--report", default=None)
    p.add_argument("--auto-refine", action="store_true")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("algebra", help="exact identity checks")
    p.add_argument("--verify-identities", action="store_true")
    p.add_argument("--dmax", type=int, default=32)
    p.add_argument("--jacobian-example", nargs=2, type=int, metavar=("d", "D"))
    p.add_argument("--report", default=None)
    p.set_defaults(fn=cmd_algebra)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--master-seed", dest="master_seed", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=None)
    p.add_argument("--csv", default=None)
    p.add_argument("--report", default=None)
    p.add_argument("--plots-dir", dest="plots_dir", default=None)
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("verify", help="run the exact-invariant suite")
    p.add_argument("--fault", default=None, choices=FAULTS,
                   help="inject a named fault (negative control)")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    experiments.one_blas_thread()
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArwError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
