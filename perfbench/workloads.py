"""The benchmark's workloads: what one pass of each does and how its output
is checked.

A pass is the workload's fixed unit of work.  `d2_sweep` runs one
`arw experiment` through the CLI entry point, in process, from a generated
config; a trial is one `experiments.run_trial` call.  `exact`
runs the exact lattice and algebra computations with no grids; a trial
there is one task (a call plus the check of its result).  Inputs are
functions of (seed, pass index) only.
"""

from __future__ import annotations

import csv
import hashlib
import inspect
import json
import tracemalloc

import numpy as np

from arw import algebra, cli, experiments, field, lattice, nodal
from arw.experiments import MPolicy

from spans import CLOCK, END, NAME, START, TAG


class CheckFailure(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailure(message)


def pass_seed(seed: int, index: int) -> int:
    """Master seed of pass `index`; a pure function of the benchmark seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint32)[0])


def _eval_grid_tag(bound, result):
    return {
        "M": bound["M"],
        "cells": int(result.values.size),
        "bytes": int(result.values.nbytes),
        "deriv": bool(bound["derivative"]),
    }


def _analyze_tag(bound, result):
    return {"M": bound["M"], "certified": bool(result.certified)}


def _trial_tag(bound, result):
    return {"group": bound["n"], "certified": bool(result.certified), "error": bool(result.error)}


def install_lattice_algebra(rec) -> None:
    """Spans on the exact entry points, shared by every workload."""
    for module in (lattice, experiments):
        rec.wrap(module, "enumerate_shell", "lattice.enumerate_shell",
                 tag=lambda b, r: {"points": int(r.dim_HL)})
    rec.wrap(lattice, "ball_moment_sweep", lambda b: f"lattice.ball_moment_sweep.d{b['d']}")
    rec.wrap(lattice, "representation_count", "lattice.representation_count")
    rec.wrap(lattice, "equidistribution_report", "lattice.equidistribution_report")
    rec.wrap(algebra, "verify_csd_identities", "algebra.verify_csd_identities")
    rec.wrap(algebra, "gradient_system_jacobian", "algebra.gradient_system_jacobian")


class MonteCarlo:
    """An `arw experiment` at parallelism 1 over fixed n values."""

    def __init__(self, d: int, n_values: tuple[int, ...], trials: int) -> None:
        self.d = d
        self.n_values = n_values
        self.trials = trials
        self.m_policy = "per_L:16"
        self.rows: list[dict] = []  # CSV rows of every pass, tagged with the pass seed

    def describe(self) -> dict:
        policy = MPolicy.parse(self.m_policy)
        return {
            "d": self.d,
            "n_values": list(self.n_values),
            "trials_per_n_per_pass": self.trials,
            "m_policy": self.m_policy,
            "grid_sizes": {str(n): [policy.grid_size(n), 2 * policy.grid_size(n)] for n in self.n_values},
            "parallelism": 1,
        }

    def warm_up(self) -> None:
        """First-call lazy set-up: one tiny trial through every stage."""
        experiments.run_trial(self.d, 1, MPolicy.parse("fixed:8"), 0, 0)

    def install_clock(self, rec) -> None:
        rec.wrap(experiments, "run_trial", "experiments.run_trial", level=CLOCK, tag=_trial_tag,
                 trial_of=lambda b: f"{b['n']}:{b['trial_index']}")

    def install_tracer(self, rec) -> None:
        rec.wrap(cli, "run_config", "cli.run_config")
        rec.wrap(experiments, "concentration_report", "experiments.concentration_report")
        rec.wrap(experiments, "write_trials_csv", "experiments.write_trials_csv")
        rec.wrap(experiments, "sample_coefficients", "field.sample_coefficients")
        rec.wrap(experiments, "analyze", "nodal.analyze", tag=_analyze_tag)
        rec.wrap(nodal, "eval_grid", "field.eval_grid", tag=_eval_grid_tag)
        for stage in ("gradient_norm_grid", "sign_grid", "count_domains", "count_components",
                      "stability_margins"):
            rec.wrap(nodal, stage, f"nodal.{stage}")
        install_lattice_algebra(rec)

    def run_pass(self, rec, seed: int, workdir) -> tuple[float, list[tuple]]:
        """Run one experiment; return its wall time and (group, seconds,
        certified, failed) per trial."""
        ini = workdir / "experiment.ini"
        ini.write_text(
            "[experiment]\n"
            f"d = {self.d}\npolicy = explicit\n"
            f"n_values = {','.join(map(str, self.n_values))}\n"
            f"trials = {self.trials}\nm_policy = {self.m_policy}\n"
            f"master_seed = {seed}\nparallelism = 1\n\n"
            "[output]\n"
            f"csv = {workdir / 'trials.csv'}\nreport = {workdir / 'report.json'}\n"
            f"plots_dir = {workdir / 'plots'}\n"
        )
        first = len(rec.spans)
        with rec.span("bench.pass") as timed:
            code = cli.main(["experiment", "--config", str(ini)])
        _require(code == 0, f"arw experiment exited {code}")
        trials = [
            (s[TAG]["group"], s[END] - s[START], s[TAG]["certified"], s[TAG]["error"])
            for s in rec.spans[first:]
            if s[NAME] == "experiments.run_trial"
        ]
        with open(workdir / "trials.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(workdir / "report.json") as fh:
            report = json.load(fh)
        expected = self.trials * len(self.n_values)
        _require(len(rows) == expected == len(trials) == report["records"],
                 f"pass {seed}: {len(rows)} CSV rows, {len(trials)} trials, expected {expected}")
        for row in rows:
            row["pass_seed"] = seed
        self.rows.extend(rows)
        return timed.seconds, trials

    def checks(self, seed: int) -> list[tuple[str, bool, str]]:
        """Output checks over every pass run so far."""
        results = []

        def check(name, fn):
            try:
                results.append((name, True, fn() or "ok"))
            except Exception as exc:  # a failed check is a result, not a crash
                results.append((name, False, f"{type(exc).__name__}: {exc}"))

        rng = np.random.default_rng([seed, 1 << 20])
        first_pass = [row for row in self.rows if row["pass_seed"] == self.rows[0]["pass_seed"]]

        def gate():
            certified = [row for row in self.rows if row["certified"] == "true"]
            for row in certified:
                k, r = int(row["k"]), int(row["r"])
                _require(r - 1 <= k <= r + self.d - 1,
                         f"n={row['n']} trial {row['trial_index']}: k={k}, r={r}")
            return f"{len(certified)} certified trials satisfy r-1 <= k <= r+d-1"

        def rerun():
            policy = MPolicy.parse(self.m_policy)
            picked = []
            for n in self.n_values:
                rows_n = [row for row in first_pass if int(row["n"]) == n]
                picked.append(rows_n[int(rng.integers(len(rows_n)))])
            for row in picked:
                rec = experiments.run_trial(self.d, int(row["n"]), policy, int(row["seed"]),
                                            int(row["trial_index"]))
                for col in ("dim_HL", "M", "k", "r"):
                    _require(int(row[col]) == getattr(rec, col), f"{col} differs on rerun of {row}")
                for col in ("min_domain_vol", "sum_diameters", "alpha", "beta"):
                    _require(float(row[col]) == getattr(rec, col), f"{col} differs on rerun of {row}")
                _require((row["certified"] == "true") == rec.certified, f"certified differs on {row}")
            return f"{len(picked)} trials reproduced exactly"

        def grid_vs_points():
            row = [r for r in first_pass if int(r["n"]) == max(self.n_values)][0]
            shell = lattice.enumerate_shell(self.d, int(row["n"]))
            sample = field.sample_coefficients(shell, int(row["seed"]), int(row["trial_index"]))
            M = MPolicy.parse(self.m_policy).grid_size(shell.n)
            grid = field.eval_grid(sample, M)
            idx = rng.integers(0, M, size=(64, self.d))
            gap = float(np.max(np.abs(grid.values[tuple(idx.T)] - field.eval_points(sample, idx / M))))
            _require(gap <= 1e-9, f"eval_grid and eval_points differ by {gap:.3e}")
            return f"max |eval_grid - eval_points| = {gap:.2e} at 64 points, M={M}"

        check("certified_gate", gate)
        check("rerun_reproduces", rerun)
        check("eval_grid_vs_eval_points", grid_vs_points)
        return results

    def digest(self) -> str:
        lines = sorted({
            f"{row['pass_seed']},{row['n']},{row['trial_index']},{row['k']},{row['r']},{row['certified']}"
            for row in self.rows
        })
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    def peak_bytes_per_cell(self, seed: int) -> float:
        """tracemalloc peak of one `nodal.analyze` at the largest n, per
        cell of its finest grid."""
        n = max(self.n_values)
        sample = field.sample_coefficients(lattice.enumerate_shell(self.d, n), pass_seed(seed, 0), 0)
        M = MPolicy.parse(self.m_policy).grid_size(n)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            summary = nodal.analyze(sample, M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / summary.M**self.d


class Exact:
    """The exact lattice and algebra computations, with no grids."""

    def __init__(self) -> None:
        self.outcomes: list[tuple[str, bool, str]] = []

    @staticmethod
    def describe() -> dict:
        return {
            "tasks": ["sweep.d2", "sweep.d3", "sweep.d4", "enumerate_shell", "jacobi",
                      "equidistribution", "csd_identities", "jacobian"],
            "sweep_n_max": {"d2": "100000+j", "d3": "20000+j", "d4": "2000+j"},
        }

    @staticmethod
    def warm_up() -> None:
        lattice.ball_moment_sweep(2, 10)
        lattice.representation_count(4, 5)
        lattice.equidistribution_report(lattice.enumerate_shell(2, 5))
        algebra.verify_csd_identities(1)
        algebra.gradient_system_jacobian(algebra.example_trig_poly(2, 1, 3))

    def install_clock(self, rec) -> None:
        pass  # tasks are timed by the benchmark's own spans

    def install_tracer(self, rec) -> None:
        install_lattice_algebra(rec)

    def _tasks(self, seed: int):
        rng = np.random.default_rng(seed)
        jitter = lambda span: int(rng.integers(span))

        def sweep(d: int, n_max: int):
            def task():
                counts, sums = lattice.ball_moment_sweep(d, n_max)
                n = np.arange(n_max + 1)
                _require(np.all(n * counts % d == 0), f"d={d}: n*N not divisible by d")
                expect = (n * counts // d)[:, None, None] * np.eye(d, dtype=np.int64)
                _require(np.array_equal(sums, expect), f"d={d}: sums differ from (nN/d) I")
                probe = rng.integers(1, n_max + 1, size=32)
                for m in probe.tolist():
                    _require(int(counts[m]) == lattice.representation_count(d, m),
                             f"d={d}, n={m}: sweep count differs from representation_count")
                return f"n <= {n_max}: sums = (nN/d) I"
            return task

        def enumerate_shells():
            lo = 1 + jitter(200)
            points = 0
            for d, count in ((2, 400), (3, 250), (4, 60)):
                for n in range(lo, lo + count):
                    shell = lattice.enumerate_shell(d, n)
                    _require(shell.dim_HL == lattice.representation_count(d, n),
                             f"enumerate_shell({d},{n}) size differs from representation_count")
                    _require(bool(np.all(np.sum(shell.points**2, axis=1) == n)),
                             f"enumerate_shell({d},{n}) has a point off the shell")
                    points += shell.dim_HL
            return f"{points} points"

        def jacobi():
            lo = 1 + jitter(5000)
            for n in range(lo, lo + 4000):
                _require(lattice.representation_count(4, n) == lattice.jacobi_four_square_count(n),
                         f"Jacobi mismatch at n={n}")
            return f"r_4(n) = Jacobi count for {lo} <= n < {lo + 4000}"

        def equidistribution():
            shells = [(2, 5 * 13 * 17 * 29), (3, 3001 + 2 * jitter(50)), (3, 5001 + 2 * jitter(50)),
                      (4, 301 + 2 * jitter(20)), (4, 501 + 2 * jitter(20))]
            for d, n in shells:
                shell = lattice.enumerate_shell(d, n)
                if shell.is_empty:
                    continue
                report = lattice.equidistribution_report(shell)
                for alpha, dev in report.moment_deviations.items():
                    if sum(alpha) == 2:
                        _require(dev == 0.0, f"degree-2 moment of shell ({d},{n}) deviates by {dev}")
            return f"{len(shells)} shells: degree-2 moments exact"

        def csd():
            _require(algebra.verify_csd_identities(32).passed, "C/S identity suite failed")
            return "D <= 32"

        def jacobian():
            examples = [(d, D) for d in (2, 3, 4) for D in range(1, 9)]
            for d, D in examples:
                jac, power = algebra.gradient_system_jacobian(algebra.example_trig_poly(d, D, d + 1))
                _, S = algebra.chebyshev_pair(D)
                expected = algebra.AlgPoly.constant(2 * d, 2 * D**2) ** d
                for j in range(d):
                    expected = expected * S.embed(2 * d, [2 * j, 2 * j + 1])
                _require(jac == expected and power == d, f"Jacobian example ({d},{D}) differs")
            return f"{len(examples)} examples"

        return [
            ("sweep.d2", sweep(2, 100_000 + jitter(2000))),
            ("sweep.d3", sweep(3, 20_000 + jitter(1000))),
            ("sweep.d4", sweep(4, 2_000 + jitter(100))),
            ("enumerate_shell", enumerate_shells),
            ("jacobi", jacobi),
            ("equidistribution", equidistribution),
            ("csd_identities", csd),
            ("jacobian", jacobian),
        ]

    def run_pass(self, rec, seed: int, workdir) -> tuple[float, list[tuple]]:
        # Each pass starts from the caches of a fresh process, so that no
        # pass reuses the shells or count tables of the one before it.
        clear = getattr(inspect.unwrap(lattice.enumerate_shell), "cache_clear", None)
        if clear:
            clear()
        getattr(lattice, "_REP_TABLE_CACHE", {}).clear()
        tasks = self._tasks(seed)
        trials = []
        with rec.span("bench.pass") as timed:
            for name, task in tasks:
                with rec.span(f"bench.task.{name}") as span:
                    try:
                        outcome = (name, True, task())
                    except Exception as exc:  # a failed check is a result, not a crash
                        outcome = (name, False, f"{type(exc).__name__}: {exc}")
                self.outcomes.append(outcome)
                trials.append((name, span.seconds, outcome[1], not outcome[1]))
        return timed.seconds, trials

    def checks(self, seed: int) -> list[tuple[str, bool, str]]:
        failed = [o for o in self.outcomes if not o[1]]
        detail = "; ".join(f"{name}: {msg}" for name, _, msg in failed[:3])
        return [("exact_tasks", not failed, detail or f"{len(self.outcomes)} task checks passed")]

    def digest(self) -> str:
        lines = sorted({f"{name},{ok},{detail}" for name, ok, detail in self.outcomes})
        return hashlib.sha256("\n".join(lines).encode()).hexdigest()

    @staticmethod
    def peak_bytes_per_cell(seed: int) -> float:
        return 0.0  # no grids


WORKLOADS = {
    "d2_sweep": lambda: MonteCarlo(2, (5, 65, 325, 1105), trials=6),
    "exact": Exact,
}
