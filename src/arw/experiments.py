"""Monte-Carlo trials over the wave ensemble, their statistics, and the
config-driven experiment run that writes the trials CSV, the JSON report
and the plot-data series.

Each trial is a pure function of (master_seed, trial_index), so runs are
reproducible at any parallelism, apart from the memory guard: pool
workers split one budget.  The fields of `TrialRecord` are the
trials-CSV columns, in order, apart from `error`.  Statistics are computed
over certified trials only, with the uncertified fraction reported
alongside; grid counts from uncertified trials would pollute the estimates
the concentration statements are about.
"""

from __future__ import annotations

import csv
import ctypes
import glob
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from fractions import Fraction
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from . import field as field_module
from .errors import ArwError, InsufficientTrials, MemoryBudgetExceeded, ValidationError
from .field import min_alias_free_M, sample_coefficients
from .lattice import admissible_sequence, enumerate_shell
from .nodal import analyze


@dataclass(frozen=True)
class MPolicy:
    """Grid-size policy: fixed(M), per_L(K) with M = K*ceil(sqrt(n)), or
    auto_refine from the smallest alias-free grid."""

    kind: str
    value: int = 0

    @staticmethod
    def parse(text: str) -> "MPolicy":
        text = text.strip()
        if text == "auto_refine":
            return MPolicy("auto_refine")
        if ":" in text:
            kind, _, raw = text.partition(":")
            kind = kind.strip()
            if kind in ("fixed", "per_L"):
                try:
                    value = int(raw)
                except ValueError:
                    raise ValidationError(f"m_policy value {raw!r} is not an integer") from None
                if value < 1:
                    raise ValidationError(f"m_policy value {raw!r} must be >= 1")
                return MPolicy(kind, value)
        raise ValidationError(f"unknown m_policy {text!r}")

    def __str__(self) -> str:
        if self.kind == "auto_refine":
            return "auto_refine"
        return f"{self.kind}:{self.value}"

    def grid_size(self, n: int) -> int:
        floor = min_alias_free_M(n)
        if self.kind == "fixed":
            return max(self.value, floor)
        if self.kind == "per_L":
            return max(self.value * math.isqrt(n - 1) + self.value, floor)
        return floor

    @property
    def auto_refine(self) -> bool:
        return self.kind == "auto_refine"


_NOT_IN_CSV = {"csv": False}  # field metadata; every other field is a CSV column


@dataclass(frozen=True)
class TrialRecord:
    """One trial; each field but `error` is the CSV column of the same name."""

    trial_index: int
    seed: int
    d: int
    n: int
    dim_HL: int
    M: int
    k: int = 0
    r: int = 0
    min_domain_vol: float = 0.0
    sum_diameters: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    certified: bool = False
    wall_time_ms: float = 0.0
    error: str = field(default="", metadata=_NOT_IN_CSV)  # why the trial was not measured

    @property
    def scaled_count(self) -> float:
        """k / L^d = k / n^(d/2)."""
        return self.k / float(self.n) ** (self.d / 2.0)


_CSV_FIELDS = [f for f in fields(TrialRecord) if f.metadata.get("csv", True)]
CSV_COLUMNS = tuple(f.name for f in _CSV_FIELDS)
# field annotation -> parser of the text `_fmt` writes
_PARSERS = {"int": int, "float": float, "bool": {"true": True, "false": False}.__getitem__}


def run_trial(d: int, n: int, m_policy: MPolicy, master_seed: int, trial_index: int) -> TrialRecord:
    """One trial: sample, analyze, summarize.  Memory failures are flagged
    in the record (zero counts and `error`) instead of raised."""
    t0 = time.perf_counter()
    shell = enumerate_shell(d, n)
    sample = sample_coefficients(shell, master_seed, trial_index)
    M = m_policy.grid_size(n)
    try:
        summary = analyze(sample, M, auto_refine=m_policy.auto_refine)
    except MemoryBudgetExceeded as exc:
        measured = dict(M=M, error=f"MemoryBudgetExceeded: {exc}")  # the other fields' defaults
    else:
        same_name = ("M", "k", "r", "alpha", "beta", "certified")  # columns the summary holds
        measured = {name: getattr(summary, name) for name in same_name}
        measured.update(
            min_domain_vol=float(np.min(summary.domain_volumes)) if summary.r else 0.0,
            sum_diameters=float(np.sum(summary.component_diameters)),
        )
    return TrialRecord(
        trial_index=trial_index,
        seed=master_seed,
        d=d,
        n=n,
        dim_HL=shell.dim_HL,
        wall_time_ms=(time.perf_counter() - t0) * 1e3,
        **measured,
    )


def _openblas() -> Optional[ctypes.CDLL]:
    """NumPy's bundled OpenBLAS (wheels ship it in numpy.libs), or None."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas64_*.so")
    for path in glob.glob(pattern):
        try:
            return ctypes.CDLL(path)
        except OSError:
            pass
    return None


def _share_budget(workers: int) -> None:
    """Pool initializer: the workers split one memory budget evenly, and
    each runs OpenBLAS on one thread, so P workers keep P BLAS threads.

    Workers are forked with OpenBLAS already loaded, so the thread count is
    set through the library itself; an environment variable would come too
    late.  Without NumPy's bundled library or its setter this is a no-op.
    """
    field_module._budget_shares = workers
    setter = getattr(_openblas(), "scipy_openblas_set_num_threads64_", None)
    if setter is not None:
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(1)


def run_trials(
    d: int,
    n: int,
    trials: int,
    m_policy: MPolicy,
    master_seed: int,
    parallelism: int = 1,
) -> list[TrialRecord]:
    """Run `trials` independent trials, in trial order; records are
    identical at any parallelism (wall times aside) because trial t draws
    from the (master_seed, t) stream, as long as no worker hits its share
    of the memory budget.  The pool has min(parallelism, trials) workers,
    and they split the budget evenly, so no idle worker takes a share."""
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    args = (repeat(d), repeat(n), repeat(m_policy), repeat(master_seed), range(trials))
    workers = min(parallelism, trials)
    if workers <= 1:
        return list(map(run_trial, *args))
    # the counts import csgraph on first use; loaded here, every forked
    # worker inherits it instead of importing it again in each pool
    import scipy.sparse.csgraph  # noqa: F401

    with ProcessPoolExecutor(max_workers=workers, initializer=_share_budget,
                             initargs=(workers,)) as pool:
        return list(pool.map(run_trial, *args, chunksize=max(1, trials // (4 * workers))))


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_trials_csv(path: str, records: Sequence[TrialRecord]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for rec in records:
            writer.writerow([_fmt(getattr(rec, col)) for col in CSV_COLUMNS])


def read_trials_csv(path: str) -> list[TrialRecord]:
    """Trials CSV records; the header must be `CSV_COLUMNS` and each cell its column's type."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = tuple(next(rows, ()))
        if header != CSV_COLUMNS:
            missing = [col for col in CSV_COLUMNS if col not in header]
            unknown = [col for col in header if col not in CSV_COLUMNS]
            raise ValidationError(f"{path}: missing columns {missing}, unknown columns {unknown}")
        records = []
        for row in rows:
            where, values = f"{path} line {rows.line_num}", {}
            if len(row) != len(CSV_COLUMNS):
                raise ValidationError(f"{where}: {len(row)} cells, not {len(CSV_COLUMNS)}")
            for f, text in zip(_CSV_FIELDS, row):
                try:
                    values[f.name] = _PARSERS[f.type](text)
                except (KeyError, ValueError):
                    raise ValidationError(
                        f"{where}, column {f.name}: {text!r} is not a valid {f.type}") from None
            records.append(TrialRecord(**values))
        return records


@dataclass(frozen=True)
class PerNStats:
    n: int
    dim_HL: int
    trials: int
    certified_trials: int
    uncertified_fraction: float
    mean: float
    median: float
    variance: float
    tail_freqs: dict[float, float]


@dataclass(frozen=True)
class ConcentrationReport:
    epsilons: tuple[float, ...]
    per_n: list[PerNStats] = field(default_factory=list)
    # fitted slope of log(tail frequency) against dim_HL, per epsilon;
    # absent (None) when fewer than 3 strictly positive frequencies exist
    slopes: dict[float, Optional[float]] = field(default_factory=dict)


def _certified_by_n(records: Sequence[TrialRecord]) -> list[tuple[int, int, list[TrialRecord]]]:
    """(n, trial count, certified records) for each n, by ascending n."""
    groups: dict[int, list[TrialRecord]] = {}
    for rec in records:
        groups.setdefault(rec.n, []).append(rec)
    return [(n, len(recs), [rec for rec in recs if rec.certified])
            for n, recs in sorted(groups.items())]


def concentration_report(
    records: Sequence[TrialRecord],
    epsilons: Optional[Sequence[float]] = None,
    min_trials: int = 30,
) -> ConcentrationReport:
    """Per-n medians, variances, and epsilon-tail frequencies of k/L^d.

    Only certified trials enter the statistics; the uncertified fraction is
    reported.  The default epsilon list scales {1%, 2%, 5%, 10%} of the
    pooled certified median.  Tail-decay slopes are fitted per epsilon on
    log(frequency) vs dim_HL using only strictly positive frequencies and
    at least three support points.  An n with fewer than max(min_trials, 1)
    certified trials raises InsufficientTrials naming that n.
    """
    groups = _certified_by_n(records)
    if not groups:
        raise InsufficientTrials("no records")
    certified_all = [rec.scaled_count for _, _, cert in groups for rec in cert]
    if not certified_all:
        raise InsufficientTrials("no certified records")
    need = max(min_trials, 1)
    for n, _, cert in groups:
        if len(cert) < need:
            raise InsufficientTrials(f"n={n}: {len(cert)} certified trials < {need}")
    if epsilons is None:
        base = float(np.median(certified_all))
        epsilons = tuple(round(f * base, 12) for f in (0.01, 0.02, 0.05, 0.1))
    else:
        epsilons = tuple(float(e) for e in epsilons)

    per_n: list[PerNStats] = []
    for n, trials, cert in groups:
        values = np.array([rec.scaled_count for rec in cert])
        med = float(np.median(values))
        tails = {
            eps: float(np.mean(np.abs(values - med) > eps)) for eps in epsilons
        }
        per_n.append(
            PerNStats(
                n=n,
                dim_HL=cert[0].dim_HL,
                trials=trials,
                certified_trials=len(cert),
                uncertified_fraction=1.0 - len(cert) / trials,
                mean=float(np.mean(values)),
                median=med,
                variance=float(np.var(values, ddof=1)) if len(cert) > 1 else 0.0,
                tail_freqs=tails,
            )
        )

    slopes: dict[float, Optional[float]] = {}
    for eps in epsilons:
        xs = [stats.dim_HL for stats in per_n if stats.tail_freqs[eps] > 0.0]
        ys = [math.log(stats.tail_freqs[eps]) for stats in per_n if stats.tail_freqs[eps] > 0.0]
        if len(xs) >= 3 and len(set(xs)) >= 3:
            slopes[eps] = float(np.polyfit(np.array(xs, dtype=float), np.array(ys), 1)[0])
        else:
            slopes[eps] = None
    return ConcentrationReport(epsilons=epsilons, per_n=per_n, slopes=slopes)


@dataclass(frozen=True)
class NuEstimate:
    per_n_mean: dict[int, float]
    nu_hat: float
    std_error: float
    stabilization_gap: float


def nu_estimate(records: Sequence[TrialRecord]) -> NuEstimate:
    """Mean of k/L^d per n; the estimate is the mean at the largest n, with
    the relative gap to the second largest as the stabilization measure."""
    levels = [
        (n, [rec.scaled_count for rec in cert]) for n, _, cert in _certified_by_n(records) if cert
    ]
    if len(levels) < 2:
        raise InsufficientTrials("need certified trials at >= 2 distinct n")
    means = {n: float(np.mean(vals)) for n, vals in levels}
    (second, _), (top, top_vals) = levels[-2:]
    gap = abs(means[top] - means[second]) / means[top] if means[top] else math.inf
    std = float(np.std(top_vals, ddof=1)) if len(top_vals) > 1 else 0.0
    return NuEstimate(
        per_n_mean=means,
        nu_hat=means[top],
        std_error=std / math.sqrt(len(top_vals)),
        stabilization_gap=gap,
    )


def diameter_scaling(records: Sequence[TrialRecord], d: int) -> float:
    """Least-squares exponent of mean total component diameter against
    L = sqrt(n); the trigonometric degree bound predicts d-1."""
    xs, ys = [], []
    for n, _, cert in _certified_by_n(records):
        if cert:
            mean = float(np.mean([rec.sum_diameters for rec in cert]))
            if mean > 0:
                xs.append(0.5 * math.log(n))
                ys.append(math.log(mean))
    if len(xs) < 3:
        raise InsufficientTrials("need >= 3 distinct n with certified trials")
    return float(np.polyfit(np.array(xs), np.array(ys), 1)[0])


def _per_n_seed(master_seed: int, n: int) -> int:
    return int(np.random.SeedSequence(master_seed, spawn_key=(n,)).generate_state(1, np.uint64)[0])


def _str_keys(obj):
    """`obj` with str(key) for every dict key at any depth, so `sort_keys`
    orders float and int keys as the strings json writes."""
    if isinstance(obj, dict):
        return {str(key): _str_keys(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_str_keys(value) for value in obj]
    return obj


def run_experiment(config) -> None:
    """Run the experiment a validated `config.ExperimentConfig` describes:
    the trials for each n, the trials CSV, the JSON report and, when
    `plots_dir` is set and the concentration statistics exist, the
    plot-data series.  Trials that hit the memory guard keep their CSV
    rows (k = r = 0, uncertified); once every output is written, the run
    raises MemoryBudgetExceeded with their number."""
    if config.policy == "explicit":
        ns = sorted(config.n_values)
    else:
        ns = admissible_sequence(config.d, config.n_min, config.n_max, config.policy)
        if not ns:
            raise ValidationError(
                f"experiment.policy {config.policy!r} admits no n in "
                f"{config.n_min} <= n <= {config.n_max} at d={config.d}"
            )
    m_policy = MPolicy.parse(config.m_policy)
    records: list[TrialRecord] = []
    for n in ns:
        records.extend(
            run_trials(
                config.d,
                n,
                config.trials,
                m_policy,
                _per_n_seed(config.master_seed, n),
                parallelism=config.parallelism,
            )
        )
    write_trials_csv(config.csv, records)

    report: dict = {
        "config": asdict(config),
        "n_values": ns,
        "records": len(records),
        "errors": sum(1 for rec in records if rec.error),
    }
    # a statistic the records cannot support is reported as null with a note
    stats = {}
    for key, note, compute in (
        ("concentration", "concentration_note",
         lambda: concentration_report(records, epsilons=config.epsilons or None)),
        ("nu", "nu_note", lambda: nu_estimate(records)),
        ("diameter_scaling_exponent", "diameter_scaling_note",
         lambda: diameter_scaling(records, config.d)),
    ):
        try:
            stats[key] = compute()
        except ArwError as exc:
            stats[key] = None
            report[note] = str(exc)
    report.update((key, asdict(v) if is_dataclass(v) else v) for key, v in stats.items())
    with open(config.report, "w") as fh:
        fh.write(json.dumps(_str_keys(report), indent=2, sort_keys=True) + "\n")

    if config.plots_dir and stats["concentration"] is not None:
        os.makedirs(config.plots_dir, exist_ok=True)
        _write_plot_series(config.plots_dir, stats["concentration"])
    if report["errors"]:
        raise MemoryBudgetExceeded(
            f"{report['errors']} of {len(records)} trials hit the memory guard; their CSV rows "
            f"(k = r = 0, uncertified) are not measurements"
        )


def _write_plot_series(plots_dir: str, conc: ConcentrationReport) -> None:
    def write(name: str, rows: list[tuple[float, float, str]]) -> None:
        with open(os.path.join(plots_dir, name), "w") as fh:
            fh.write("x,y,series\n")
            for x, y, series in rows:
                fh.write(f"{x!r},{y!r},{series}\n")

    write(
        "count_vs_L.csv",
        [(math.sqrt(s.n), s.mean, "mean_scaled_count") for s in conc.per_n]
        + [(math.sqrt(s.n), s.median, "median_scaled_count") for s in conc.per_n],
    )
    write("variance_vs_dim.csv", [(float(s.dim_HL), s.variance, "variance") for s in conc.per_n])
    write(
        "tail_vs_dim.csv",
        [
            (float(s.dim_HL), s.tail_freqs[eps], f"eps={eps!r}")
            for eps in conc.epsilons
            for s in conc.per_n
        ],
    )


@dataclass(frozen=True)
class ProofExponents:
    """Closed-form solution of the concentration proof's exponent system.

    Parameters scale as powers of epsilon: alpha ~ eps^a, beta ~ eps^b,
    delta ~ eps^(2k), gamma ~ eps^g, tau ~ eps^t, rho ~ eps^h, R ~ eps^(-r),
    and the decay rate satisfies c(eps) ~ eps^c_exponent with
    c_exponent = (d+2)^2 - 1.
    """

    d: int
    a: Fraction
    b: Fraction
    k: Fraction
    g: Fraction
    t: Fraction
    h: Fraction
    r: Fraction
    c_exponent: Fraction

    def inequalities(self) -> dict[str, bool]:
        a, b, k, g, t, h, r = self.a, self.b, self.k, self.g, self.t, self.h, self.r
        d = self.d
        ineq1 = 2 * k + d * g <= min(a, b + g, 2 * g - k, t - k) + d * min(b, g - k, t - k)
        return {
            "ineq1": bool(ineq1),
            "ineq2": b <= a + r,
            "ineq3": r >= 1,
            "ineq4": 2 * k >= 1 + r * d,
            "ineq5": 2 * h >= 1 + 2 * a + r * d,
        }

    @property
    def satisfied(self) -> bool:
        return all(self.inequalities().values())


def proof_exponents(d: int) -> ProofExponents:
    """Exponents minimizing max(h, t): b = a + 1, 2k = d + 1,
    4g = (d+1)(d+3), r = 1, 2a = (d+1)(d+2), and 2h = 2t = (d+2)^2 - 1."""
    if d < 2:
        raise ValidationError("d must be >= 2")
    a = Fraction((d + 1) * (d + 2), 2)
    h = Fraction(d + 1, 2) + a
    return ProofExponents(
        d=d,
        a=a,
        b=a + 1,
        k=Fraction(d + 1, 2),
        g=Fraction((d + 1) * (d + 3), 4),
        t=h,
        h=h,
        r=Fraction(1),
        c_exponent=Fraction((d + 2) ** 2 - 1),
    )
