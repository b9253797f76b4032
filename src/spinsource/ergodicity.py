"""Finite-horizon numerical tests for ergodic averaging and mixing.

For m-site observables a, b and a stationary source, write

    corr(i) = tr(rho_{m+i} (a (x) I^(x (i-m)) (x) b)),    i >= m,
    target  = tr(rho_m a) tr(rho_m b).

The unit is the observable pair: pair_report computes corr(i) once over
a finite horizon of n_max shifts and judges three convergence statements
on it,

* ergodic mean:   (1/n) sum_i corr(i)            -> target,
* weak mixing:    (1/n) sum_i |corr(i) - target| -> 0,
* strong mixing:  corr(i)                        -> target,

each as a report with the full statistic sequence, its deviation
sequence, and a three-way verdict (pass, fail, inconclusive).
sweep_report runs it over a family of pairs and keeps the worst verdict
per test.  A finite horizon cannot prove a limit, so the verdict is a
trend heuristic: pass needs the final deviation under tolerance with a
non-growing tail, fail needs a final deviation over tolerance that shows
no clear improvement, and everything in between stays inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .channels import _is_real
from .errors import AlignmentError, CapExceededError
from .operators import Operator, _check_cap, random_observable, word_projector
from .sources import _correlation_route, _count, source_block_mean, source_correlation

DEFAULT_N_MAX = 2000
# short dense horizons leave larger finite-size remainders, hence the looser dense default
_DEFAULT_TOL = {"transfer": 1e-2, "dense": 5e-2}
DECAY_FLOOR = 1e-13
_ORDER = {"fail": 0, "inconclusive": 1, "pass": 2}
_PROJECTOR_LIMIT = 8
# a sweep's reports keep 64 bytes per (pair, shift) row (0.32 GB at the cap) and a run peaks
# below 100 (under 0.5 GB); emission adds one chunk of rows, not a pair's; no override
_SWEEP_ROW_CAP = 5 * 10**6


def _pair_plan(source, a_sites: int, b_sites: int, n_max: int, backend: str, tol: float | None) -> tuple:
    """(backend, tol, shift count) for a_sites- and b_sites-site pairs over shifts a_sites..n_max,
    with nothing built: tol a real number in (0, 1) or None, at least 4 shifts, all whole blocks
    of the source, the route's cap at the widest gap, then tol's per-route default."""
    if tol is not None and not _is_real(tol):
        raise TypeError(f"tol must be a real number, not {type(tol).__name__}")
    if tol is not None and not 0 < tol < 1:
        raise ValueError(f"tol must be in (0, 1), got {tol}")
    shifts = _count(n_max, "n_max") - a_sites + 1
    if shifts < 4:
        raise ValueError(f"n_max={n_max} leaves {shifts} shifts for block_sites={a_sites}; the mixing tests need >= 4")
    if getattr(source, "span", 1) > 1:  # a source outside the library has no span
        raise AlignmentError(f"a sweep's shifts are not all whole blocks of the source's {source.span} sites")
    backend = _correlation_route(source, a_sites, b_sites, n_max - a_sites, backend)
    return backend, _DEFAULT_TOL[backend] if tol is None else tol, shifts


def _sweep_plan(source, block_sites: int, n_max: int, backend: str, tol: float | None, random_pair_count: int,
                seed: int):
    """sweep_report's (backend, tol), in this order and with nothing drawn: whole counts, the
    observables' side, the pair plan (tol, horizon, blocks, route) and the rows, pairs x shifts."""
    if _count(block_sites, "block_sites") < 1:
        raise ValueError(f"block_sites must be >= 1, got {block_sites}")
    for count, what in ((random_pair_count, "random_pair_count"), (seed, "seed")):
        if _count(count, what) < 0:
            raise ValueError(f"{what} must be >= 0, got {count}")
    _check_cap(source.site_dim, block_sites)
    backend, tol, shifts = _pair_plan(source, block_sites, block_sites, n_max, backend, tol)
    pairs = min(source.site_dim**block_sites, _PROJECTOR_LIMIT) + random_pair_count
    if pairs * shifts > _SWEEP_ROW_CAP:
        raise CapExceededError(
            f"sweep of {pairs} pairs x {shifts} shifts exceeds cap {_SWEEP_ROW_CAP} rows",
            cap=_SWEEP_ROW_CAP,
        )
    return backend, tol


def _verdict(devs: np.ndarray, tol: float) -> str:
    """Trend heuristic over a deviation sequence.

    pass: final value within tol and the trailing tenth of the sequence
    not increasing (max of its second half at most max of its first half,
    with absolute slack 1e-12).  fail: final value above tol and the
    second half of the whole sequence not decisively below the first
    (factor 2).  Otherwise inconclusive.
    """
    devs = np.asarray(devs, dtype=float)
    n = devs.size
    final = float(devs[-1])
    if final <= tol:
        w = max(4, n // 10)
        tail = devs[-w:]
        first = float(tail[: w // 2].max())
        second = float(tail[w // 2 :].max())
        return "pass" if second <= first + 1e-12 else "inconclusive"
    first = float(devs[: n // 2].max())
    second = float(devs[n // 2 :].max())
    return "inconclusive" if second <= 0.5 * first else "fail"


@dataclass(frozen=True)
class DecayFit:
    """Least-squares fit of log deviation against shift index.

    rate is the per-shift multiplicative factor exp(slope).  Points at or
    below the noise floor are excluded; the fit is reported only when
    enough points survive.
    """

    rate: float
    log_intercept: float
    points_used: int
    max_log_residual: float


def fit_decay(devs, floor: float = DECAY_FLOOR, min_points: int = 8) -> DecayFit | None:
    devs = np.asarray(devs, dtype=float)
    idx = np.where(devs > floor)[0]
    if idx.size < min_points:
        return None
    x = idx.astype(float)
    y = np.log(devs[idx])
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.max(np.abs(y - (slope * x + intercept))))
    return DecayFit(float(np.exp(slope)), float(intercept), int(idx.size), resid)


@dataclass(frozen=True, eq=False)
class ErgodicityReport:
    """Outcome of one convergence test for one observable pair.

    statistics holds the judged sequence (partial means for the averaged
    tests, raw correlations for strong mixing); deviations holds its
    distance from the limit at each horizon.

    The three arrays are read-only copies of what the caller passed, so no
    later write by the caller, not even after setflags(write=True) on an
    array it froze itself, reaches a report.  pair_report's reports are
    built past this copy (_owned_report) and share the arrays it built and
    froze: one shifts array for the three reports, and one array as weak
    mixing's statistics and deviations.
    """

    test: str
    n_max: int
    target: complex
    shifts: np.ndarray
    statistics: np.ndarray
    deviations: np.ndarray
    final_deviation: float
    tol: float
    verdict: str
    decay: DecayFit | None = None

    def __post_init__(self):
        for name in ("shifts", "statistics", "deviations"):
            arr = np.array(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def _owned_report(*values) -> ErgodicityReport:
    """An ErgodicityReport over arrays pair_report has just built and frozen, held as
    they are rather than copied; reports from anywhere else go through the class."""
    report = object.__new__(ErgodicityReport)
    report.__dict__.update(zip((f.name for f in fields(ErgodicityReport)), values))  # past the frozen __setattr__
    return report


# ---------------------------------------------------------------------------
# sweeps over observable pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PairReport:
    """The three tests for one (a, b) observable pair."""

    label: str
    ergodic_mean: ErgodicityReport
    weak_mixing: ErgodicityReport
    strong_mixing: ErgodicityReport

    @property
    def verdicts(self) -> tuple:
        return (
            self.ergodic_mean.verdict,
            self.weak_mixing.verdict,
            self.strong_mixing.verdict,
        )

    @property
    def reports(self) -> tuple:
        return (self.ergodic_mean, self.weak_mixing, self.strong_mixing)


def pair_report(
    source,
    a: Operator,
    b: Operator,
    n_max: int = DEFAULT_N_MAX,
    backend: str = "auto",
    tol: float | None = None,
    label: str = "",
) -> PairReport:
    """The three tests for one pair, from one correlation sequence.

    corr(i) runs over shifts i = a.sites .. n_max, one value per shift of
    b past a.  tol defaults to 1e-2 on the transfer route and 5e-2 on the
    dense route.
    """
    backend, tol, count = _pair_plan(source, a.sites, b.sites, n_max, backend, tol)
    shifts = a.sites + np.arange(count)
    corr = source_correlation(source, a, b, shifts - a.sites, backend)
    target = complex(source_block_mean(source, a) * source_block_mean(source, b))
    counts = np.arange(1, shifts.size + 1)
    means = np.cumsum(corr) / counts
    devs = np.abs(means - target)
    strong = np.abs(corr - target)
    weak = np.cumsum(strong) / counts
    for arr in (shifts, corr, means, devs, strong, weak):  # held by the reports as they are
        arr.setflags(write=False)

    def report(test, statistics, deviations, decay=None):
        return _owned_report(
            test, n_max, target, shifts, statistics, deviations,
            float(deviations[-1]), tol, _verdict(deviations, tol), decay,
        )

    return PairReport(
        label,
        report("ergodic_mean", means, devs),
        report("weak_mixing", weak, weak),
        report("strong_mixing", corr, strong, fit_decay(strong)),
    )


@dataclass(frozen=True, eq=False)
class SourceSweepReport:
    """Worst-case verdicts over a family of observable pairs.

    A convergence property of the source must hold for every pair, so the
    source verdict per test is the worst pair verdict (fail beats
    inconclusive beats pass).  monotone_ok records whether the triple is
    ordered as implication demands (strong conclusion never stronger than
    weak, weak never stronger than ergodic mean).
    """

    block_sites: int
    n_max: int
    backend: str
    tol: float
    pairs: tuple
    ergodic_mean: str
    weak_mixing: str
    strong_mixing: str
    note: str

    @property
    def verdicts(self) -> tuple:
        return (self.ergodic_mean, self.weak_mixing, self.strong_mixing)

    @property
    def monotone_ok(self) -> bool:
        e, w, s = (_ORDER[v] for v in self.verdicts)
        return e >= w >= s

    @property
    def decay_rates(self) -> dict:
        return {
            p.label: p.strong_mixing.decay.rate
            for p in self.pairs
            if p.strong_mixing.decay is not None
        }


def projector_pairs(site_dim: int, block_sites: int, limit: int = _PROJECTOR_LIMIT) -> list:
    """Diagonal word-projector pairs (E_w, E_w), at most ``limit`` of them."""
    words = []
    for idx in range(min(site_dim**block_sites, limit)):
        word = []
        x = idx
        for _ in range(block_sites):
            word.append(x % site_dim)
            x //= site_dim
        words.append(tuple(reversed(word)))
    out = []
    for w in words:
        p = word_projector(w, site_dim)
        label = "proj_" + "".join(str(s) for s in w)
        out.append((label, p, p))
    return out


def random_pairs(site_dim: int, block_sites: int, count: int, seed: int) -> list:
    """Seeded Hermitian observable pairs with unit spectral norm."""
    child = np.random.SeedSequence(seed).generate_state(2 * count)
    out = []
    for t in range(count):
        a = random_observable(block_sites, int(child[2 * t]), site_dim)
        b = random_observable(block_sites, int(child[2 * t + 1]), site_dim)
        out.append((f"rand_{t}", a, b))
    return out


def sweep_report(
    source,
    block_sites: int = 1,
    n_max: int = DEFAULT_N_MAX,
    backend: str = "auto",
    tol: float | None = None,
    random_pair_count: int = 2,
    seed: int = 0,
) -> SourceSweepReport:
    """pair_report over projector pairs plus seeded random pairs, with the
    same backend and tolerance defaults.  The counts and the seed, tol (a
    number in (0, 1)), the horizon (at least 4 shifts) and every cap are
    checked before any observable is drawn (_sweep_plan); custom pairs go
    through pair_report."""
    backend, tol = _sweep_plan(source, block_sites, n_max, backend, tol, random_pair_count, seed)
    pairs = projector_pairs(source.site_dim, block_sites)
    pairs += random_pairs(source.site_dim, block_sites, random_pair_count, seed)
    pair_reports = [
        pair_report(source, a, b, n_max, backend, tol, label) for label, a, b in pairs
    ]
    worst = [
        min((p.verdicts[t] for p in pair_reports), key=_ORDER.__getitem__)
        for t in range(3)
    ]
    note = (
        f"worst-case aggregation over {len(pair_reports)} observable pairs; "
        f"finite horizon n_max={n_max}, verdicts are trend heuristics, not proofs"
    )
    return SourceSweepReport(
        block_sites, n_max, backend, tol, tuple(pair_reports),
        worst[0], worst[1], worst[2], note,
    )
