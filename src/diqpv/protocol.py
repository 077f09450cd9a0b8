"""Instance evaluation, operating-point planning, and run segmentation.

An instance multiplies per-trial factor values into an e-value; with
product P over n trials the p-value is 1/P and the instance passes when
log P clears the significance threshold.  Logs are natural internally;
reported log2_p is the base-2 conversion (division by ln 2).  Planning
uses the central limit theorem on the per-trial log2 factor with gain g
and variance v (both in bits), so thresholds there are log2(1/delta).

Runs are segmented file-aligned: analysis may start once ten error-free
calibration files precede the cursor, each instance consumes a fixed
number of files regardless of error flags, its calibration window is the
ten most recent error-free files before it, and a final short instance
uses whatever files remain.  Instances longer than n trials are truncated
by discarding trials from the end; shorter ones are padded with neutral
trials of factor 1.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from statistics import NormalDist

import numpy as np

from .errors import (
    AnalysisAbort,
    DegenerateDataError,
    InfeasiblePlanError,
    UselessFactorError,
)
from .estimation import (
    ConditionalDistribution2,
    ConditionalDistribution3,
    cell_probabilities,
    ml_fit_quantum,
    regularize,
)
from .testfactor import (
    TestFactor,
    assemble_robust,
    build_wlr,
    gain_variance,
    lambda_max,
    mix_with_unity,
    mixing_cap,
    wbar_min,
)
from .trialdata import (
    CountsTable,
    JointSettingsDistribution,
    _checked_codes,
    aggregate_counts,
    read_trial_header,
)

LN2 = math.log(2.0)

# Completeness targets published as rounded standard-normal quantiles map
# to their exact z scores; anything else goes through the inverse CDF.
_EXACT_Z = {0.84134: 1.0, 0.97725: 2.0, 0.99865: 3.0}

BASIC_FILES_PER_INSTANCE = 2
ENTANGLEMENT_FILES_PER_INSTANCE = 4


@dataclass(frozen=True)
class ProtocolParams:
    """Operating point of a verification run.

    n is the trial count of an instance.  segment_and_analyze also takes
    None, meaning instances are sized from the first calibration window.
    """

    delta: float
    epsilon: float
    n: int | None
    mode: str = "basic"
    r_th: float = 0.0

    def __post_init__(self):
        if self.mode not in ("basic", "entanglement"):
            raise ValueError("mode must be 'basic' or 'entanglement'")
        if not 0.0 < self.delta < self.epsilon <= 1.0:
            raise ValueError("need 0 < delta < epsilon <= 1")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be at least 1")
        if self.r_th < 0:
            raise ValueError("r_th must be nonnegative")
        if self.mode == "basic" and self.r_th != 0.0:
            raise ValueError("r_th applies to entanglement mode only")

    @property
    def files_per_instance(self) -> int:
        if self.mode == "basic":
            return BASIC_FILES_PER_INSTANCE
        return ENTANGLEMENT_FILES_PER_INSTANCE

    @property
    def log_threshold(self) -> float:
        """Natural-log significance threshold ln(1/delta)."""
        return -math.log(self.delta)


@dataclass(frozen=True)
class InstanceResult:
    """Outcome of one instance."""

    sum_log_w: float
    log2_p: float
    passed: bool
    r_lb: float | None
    trials_real: int
    trials_padded: int


def _instance_length(params: ProtocolParams) -> int:
    if params.n is None:
        raise ValueError("scoring an instance needs its trial count n; params.n is None")
    return params.n


def run_instance_from_counts(
    counts: CountsTable, trials_real: int, tf: TestFactor, params: ProtocolParams
) -> InstanceResult:
    """Evaluate an instance from its cell counts (the sufficient statistic).

    counts must tally exactly trials_real trials; padding to params.n is
    neutral (factor 1 contributes log 0).  A zero factor value on an
    observed cell aborts the analysis.
    """
    if trials_real > _instance_length(params):
        raise ValueError("counts exceed the instance length")
    if counts.total != trials_real:
        raise ValueError(f"counts total {counts.total} != trials_real {trials_real}")
    flat_counts = counts.table.reshape(32)
    w = tf.full_table().reshape(32)
    observed = flat_counts > 0
    if (w[observed] <= 0).any():
        bad = int(np.nonzero(observed & (w <= 0))[0][0])
        raise AnalysisAbort(
            f"factor value 0 on observed cell code {bad}; e-value degenerates"
        )
    terms = flat_counts[observed] * np.log(w[observed])
    total = math.fsum(terms)
    log2_p = total / LN2
    threshold = params.log_threshold
    r_lb = None
    if params.mode == "entanglement":
        wbar = wbar_min(tf)
        r_lb = r_lower_bound(total, params.n, params.delta, wbar)
        threshold = threshold + params.n * params.r_th * (1.0 - wbar)
    passed = total >= threshold
    return InstanceResult(
        sum_log_w=total,
        log2_p=log2_p,
        passed=passed,
        r_lb=r_lb,
        trials_real=trials_real,
        trials_padded=params.n - trials_real,
    )


def run_instance(codes, tf: TestFactor, params: ProtocolParams) -> InstanceResult:
    """Evaluate an instance from its packed trial codes (see pack_records).

    Streams longer than params.n are truncated by discarding trials from
    the end; shorter ones are padded with neutral trials.
    """
    codes = _checked_codes(codes)[: _instance_length(params)]
    return run_instance_from_counts(aggregate_counts(codes), int(codes.size), tf, params)


def r_lower_bound(sum_log_w: float, n: int, delta: float, wbar_prime_min: float) -> float:
    """Entanglement-rate lower bound certified by an instance.

    Inverts the pass threshold: (sum log w - ln(1/delta)) / (n (1 - wbar)).
    Requires wbar_prime_min < 1; the bound may be negative and is reported
    as-is.
    """
    if wbar_prime_min >= 1.0:
        raise UselessFactorError("r lower bound needs wbar_prime_min < 1")
    return (sum_log_w + math.log(delta)) / (n * (1.0 - wbar_prime_min))


def z_for_epsilon(epsilon: float) -> float:
    """Standard-normal quantile for a completeness target."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    for eps, z in _EXACT_Z.items():
        if abs(epsilon - eps) <= 1e-6:
            return z
    return NormalDist().inv_cdf(epsilon)


def required_trials(g: float, v: float, delta: float, epsilon: float) -> int:
    """Smallest n whose CLT success probability is at least Phi(z_for_epsilon(epsilon)).

    n trials succeed with probability Phi((n g - log2(1/delta)) / sqrt(n v)),
    or at v = 0 with 1 once n g >= log2(1/delta).  The target is epsilon
    except at the rounded published quantiles: 0.97725 maps to z = 2, and
    Phi(2) = 0.97724987 is just below it.  Solves the quadratic in sqrt(n)
    for the crossing, then verifies on the integer grid (the margin is
    monotone in n).  delta >= 1 needs no trials; g <= 0 admits no finite n.
    """
    big = -math.log2(delta)
    if big <= 0:
        return 0
    if g <= 0:
        raise InfeasiblePlanError("nonpositive gain; no finite trial count works")
    z = z_for_epsilon(epsilon)
    if v == 0.0:
        n = math.ceil(big / g)
    else:
        root = _sqrt_n_crossing(g, v, big, z)
        n = max(1, math.ceil(root * root))

    def ok(m: int) -> bool:
        return m >= 1 and n_margin(m, g, v, big, z) >= 0

    while not ok(n):
        n += 1
    while n > 1 and ok(n - 1):
        n -= 1
    return n


def _sqrt_n_crossing(g, v, big, z):
    """sqrt(n) where the CLT margin n g - z sqrt(n v) - big crosses zero.

    The positive root of the quadratic in sqrt(n); g, v may be arrays.
    """
    return (z * np.sqrt(v) + np.sqrt(z * z * v + 4.0 * g * big)) / (2.0 * g)


def n_margin(n: int, g: float, v: float, big: float, z: float) -> float:
    """CLT slack n g - z sqrt(n v) - log2(1/delta) at integer n."""
    return n * g - z * math.sqrt(n * v) - big


@dataclass(frozen=True)
class EntanglementPlan:
    """Chosen unity-mixing weight and trial count for an operating point."""

    lam_mix: float
    n: int
    gain_bits: float
    variance_bits: float
    effective_gain_bits: float
    factor: TestFactor


def _mixed_gain_variance(w_flat, probs_flat, lams):
    """Gain/variance in bits of log2(lam w + 1 - lam) for a grid of lams."""
    lams = np.asarray(lams, dtype=np.float64)
    mixed = lams[:, None] * w_flat[None, :] + (1.0 - lams)[:, None]
    if (mixed <= 0).any():
        raise ValueError("mixing weight out of range for this factor")
    logs = np.log2(mixed)
    g = logs @ probs_flat
    v = (logs**2) @ probs_flat - g**2
    return g, np.clip(v, 0.0, None)


def plan_entanglement(
    tf: TestFactor, sigma3: ConditionalDistribution3, r_th: float, delta: float, epsilon: float
) -> EntanglementPlan:
    """Optimize the unity-mixing weight for an entanglement threshold.

    For each mixing weight lam the mixed factor W' = lam W + (1 - lam) has
    per-trial threshold shift r_th lam (1 - wbar_min) nats; the effective
    gain is the calibration gain minus that shift, and the plan picks the
    lam minimizing the CLT trial count.  Raises InfeasiblePlanError when
    no lam achieves positive effective gain.  At r_th = 0 this reduces to
    the trial requirement of the best mixed factor.
    """
    if r_th < 0:
        raise ValueError("r_th must be nonnegative")
    probs = cell_probabilities(sigma3, tf.nu).reshape(32)
    w_flat = tf.full_table().reshape(32)
    deficit = 1.0 - wbar_min(tf)
    if deficit <= 0:
        raise UselessFactorError("planning needs settings-averaged minimum < 1")
    big = -math.log2(delta)
    z = z_for_epsilon(epsilon)
    cap = min(mixing_cap(tf), 1e6)
    lo, hi = 1e-6 * cap, cap * (1.0 - 1e-9)

    def continuous_n(lam_arr):
        g, v = _mixed_gain_variance(w_flat, probs, lam_arr)
        g_eff = g - r_th * lam_arr * deficit / LN2
        out = np.full(lam_arr.shape, np.inf)
        feasible = g_eff > 0
        out[feasible] = _sqrt_n_crossing(g_eff[feasible], v[feasible], big, z) ** 2
        return out, g, v, g_eff

    grid = np.linspace(lo, hi, 400)
    n_grid, _, _, _ = continuous_n(grid)
    if not np.isfinite(n_grid).any():
        raise InfeasiblePlanError(
            "entanglement threshold exceeds the achievable rate at every mixing weight"
        )
    best = int(np.argmin(n_grid))
    a = grid[max(0, best - 1)]
    b = grid[min(len(grid) - 1, best + 1)]
    # Golden-section refinement on the continuous trial count.
    phi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = b - phi * (b - a)
    x2 = a + phi * (b - a)
    f1 = continuous_n(np.array([x1]))[0][0]
    f2 = continuous_n(np.array([x2]))[0][0]
    for _ in range(80):
        if b - a < 1e-12 * max(1.0, b):
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - phi * (b - a)
            f1 = continuous_n(np.array([x1]))[0][0]
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + phi * (b - a)
            f2 = continuous_n(np.array([x2]))[0][0]
    lam = 0.5 * (a + b)
    n_cont, g, v, g_eff = continuous_n(np.array([lam]))
    if not np.isfinite(n_cont[0]):
        raise InfeasiblePlanError("no feasible mixing weight after refinement")
    mixed = mix_with_unity(tf, float(lam))
    shift = r_th * float(lam) * deficit / LN2
    n = required_trials(float(g[0]) - shift, float(v[0]), delta, epsilon)
    return EntanglementPlan(
        lam_mix=float(lam),
        n=n,
        gain_bits=float(g[0]),
        variance_bits=float(v[0]),
        effective_gain_bits=float(g_eff[0]),
        factor=mixed,
    )


def achievable_delta_log2(n: int, g: float, v: float, epsilon: float) -> float:
    """Largest log2(1/delta) reachable with n trials at completeness epsilon."""
    if n < 1:
        return 0.0
    z = z_for_epsilon(epsilon)
    return max(0.0, n * g - z * math.sqrt(n * v))


def achievable_rth(
    tf: TestFactor,
    sigma3: ConditionalDistribution3,
    n: np.ndarray,
    delta: float,
    epsilon: float,
) -> np.ndarray:
    """Largest entanglement threshold testable with each trial count in n.

    Maximizes over the mixing weight the rate whose threshold the CLT
    margin still clears; 0 where n < 1 or even r_th = 0 is out of reach.
    """
    n = np.asarray(n)
    probs = cell_probabilities(sigma3, tf.nu).reshape(32)
    w_flat = tf.full_table().reshape(32)
    deficit = 1.0 - wbar_min(tf)
    if deficit <= 0:
        raise UselessFactorError("planning needs settings-averaged minimum < 1")
    big = -math.log2(delta)
    z = z_for_epsilon(epsilon)
    cap = min(mixing_cap(tf), 1e6)
    grid = np.linspace(1e-6 * cap, cap * (1.0 - 1e-9), 2000)
    g, v = _mixed_gain_variance(w_flat, probs, grid)
    m = np.maximum(n, 1)[:, None]
    slack_bits = g - (big + z * np.sqrt(m * v)) / m
    rates = (slack_bits * LN2 / (grid * deficit)).max(axis=1)
    return np.where((n >= 1) & (rates > 0.0), rates, 0.0)


class FileTrialSource:
    """Disk-backed trial source; reads the header eagerly, trials lazily."""

    def __init__(self, path):
        # Looked up at call time so a tracer can patch trialdata.read_trial_codes.
        from .trialdata import read_trial_codes

        self._path = path
        self._read_codes = read_trial_codes
        self.trials, self.error = read_trial_header(path)
        self.label = os.path.basename(os.fspath(path))
        self._what = f"{path}: payload byte"
        self._counts: CountsTable | None = None

    def counts(self) -> CountsTable:
        if self._counts is None:
            codes, _ = self._read_codes(self._path)
            self._counts = aggregate_counts(codes, self._what)
        return self._counts

    def prefix_counts(self, k: int) -> CountsTable:
        """Counts of the first k trials: the cached counts() once k >= trials."""
        if k >= self.trials:
            return self.counts()
        codes, _ = self._read_codes(self._path, limit=k)
        return aggregate_counts(codes, self._what)


@dataclass(frozen=True)
class Calibration:
    """Calibration fit of one counts table and the factor built from it.

    sigma is the matched-sector ML fit, sigma3 its regularized full-record
    behavior (for gain and variance), and factor the certified test factor.
    """

    sigma: ConditionalDistribution2
    sigma3: ConditionalDistribution3
    factor: TestFactor


def calibrate(counts: CountsTable, nu, mismatch_d: float, meta: dict | None = None) -> Calibration:
    """ML fit of calibration counts, then the certified robust test factor.

    The matched sector takes the prediction-based-ratio factor fitted to the
    ML behavior, the mismatch constant the largest certifiable value; meta
    is stored on the factor.
    """
    sigma = ml_fit_quantum(counts)
    sigma3 = regularize(sigma, mismatch_d)
    wlr = build_wlr(sigma, nu)
    lam, duals = lambda_max(wlr, nu)
    factor = assemble_robust(wlr, lam, nu, meta=meta, duals=duals)
    return Calibration(sigma, sigma3, factor)


def _first_instance_start(sources) -> int:
    """Index of the first data file: the one after the tenth error-free file."""
    error_free = [j for j, s in enumerate(sources) if not s.error]
    if len(error_free) < 10:
        raise DegenerateDataError(
            f"need 10 error-free calibration files, have {len(error_free)}"
        )
    if error_free[9] + 1 == len(sources):
        raise DegenerateDataError("no data file after the 10 calibration files")
    return error_free[9] + 1


def _window(sources, pos: int) -> list:
    """The calibration window of position pos: the ten most recent
    error-free sources before it."""
    return [s for s in sources[:pos] if not s.error][-10:]


def _calibrate_window(window, nu, mismatch_d: float) -> Calibration:
    counts = CountsTable.zeros()
    for src in window:
        counts = counts + src.counts()
    return calibrate(counts, nu, mismatch_d, meta={"calibration": [s.label for s in window]})


@dataclass(frozen=True)
class AnalyzedInstance:
    """One instance with its provenance and the factor it was scored by."""

    index: int
    result: InstanceResult
    calibration_labels: tuple[str, ...]
    data_labels: tuple[str, ...]
    factor: TestFactor
    lam_mix: float | None


def segment_and_analyze(
    sources,
    params: ProtocolParams,
    nu=None,
    mismatch_d: float = 2e-6,
) -> list[AnalyzedInstance]:
    """Walk a run of trial files: calibrate, build factors, score instances.

    sources is a sequence of trial sources (see FileTrialSource) in run
    order.  Needs ten error-free files and at least one file after them;
    raises DegenerateDataError otherwise.  Error-flagged files are never
    used for calibration but are consumed by instances.  If params.n is
    None, the first window sizes every instance: n is its entanglement
    plan's trial count, or in basic mode required_trials of its factor's
    gain and variance.
    """
    sources = list(sources)
    weights = JointSettingsDistribution.uniform() if nu is None else nu
    fpi = params.files_per_instance
    out: list[AnalyzedInstance] = []
    pos = _first_instance_start(sources)
    while pos < len(sources):
        block = sources[pos : pos + fpi]
        window = _window(sources, pos)
        cal = _calibrate_window(window, weights, mismatch_d)
        tf = cal.factor
        lam_mix = None
        if params.mode == "entanglement":
            plan = plan_entanglement(tf, cal.sigma3, params.r_th, params.delta, params.epsilon)
            tf = plan.factor
            lam_mix = plan.lam_mix
        if params.n is None:
            if params.mode == "entanglement":
                n = plan.n
            else:
                g, v = gain_variance(tf, cal.sigma3)
                n = required_trials(g, v, params.delta, params.epsilon)
            params = replace(params, n=n)
        counts = CountsTable.zeros()
        consumed = 0
        for src in block:
            remaining = params.n - consumed
            if remaining <= 0:
                break
            k = min(src.trials, remaining)
            counts = counts + src.prefix_counts(k)
            consumed += k
        result = run_instance_from_counts(counts, consumed, tf, params)
        out.append(
            AnalyzedInstance(
                index=len(out),
                result=result,
                calibration_labels=tuple(s.label for s in window),
                data_labels=tuple(s.label for s in block),
                factor=tf,
                lam_mix=lam_mix,
            )
        )
        pos += len(block)
    return out
