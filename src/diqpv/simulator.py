"""Honest-device and adversary models, and seeded trial-stream sampling.

The honest model is a polarization-entangled pair source a|HH> + b|VV>
with one photon analyzed at verifier station A (angle set by mqa) and one
at the prover (angle set by mqp), finite pair probability, detector
efficiencies, and independent dark counts.  Outcome binning is 1 = no
detection, 2 = detection, for the verifier outcome and both reported
prover outcomes, which makes the no-pair channel the dominant (1,1,1)
cell as in recorded calibration tables.

Sampling is counter-based (Philox): a trial's code counts the CDF entries
c_i <= (w >> 11) 2^-53, the float Generator.random makes from the trial's
raw 64-bit word w.  The test runs in integers, as w >> 11 >= ceil(c_i 2^53),
mostly through a table on the top bits of w, so a given key reproduces the
identical byte stream on any platform.  Trial t takes word t of the key's
stream, and Philox makes words 4 per counter step, so a chunk of trials
that starts at a multiple of 4 is drawn from its own counter range
(Philox.advance) on any thread; the bytes do not depend on how the
trials are split among threads.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimation import ConditionalDistribution2, ConditionalDistribution3, cell_probabilities, regularize
from .polytopes import lr_vertices, ns3_polytope
from .trialdata import settings_weights

_NS3 = ns3_polytope()

# Published operating values; the state amplitudes are the rounded pair
# renormalized to satisfy a^2 + b^2 = 1 exactly.
_RAW_A, _RAW_B = 0.383, 0.924
_NORM = math.hypot(_RAW_A, _RAW_B)
DEFAULT_AMP_A = _RAW_A / _NORM
DEFAULT_AMP_B = _RAW_B / _NORM
DEFAULT_ANGLES_A_DEG = (-6.7, 29.26)
DEFAULT_ANGLES_P_DEG = (6.7, -29.26)
DEFAULT_ETA = 0.81
DEFAULT_DARK_COUNT = 1e-7
DEFAULT_PAIR_PROB = 1.0 / 350.0
DEFAULT_MISMATCH = 2e-6

# Draws in flight per sample_trials call, shared out among its threads
# (at most 17 bytes of work buffers per draw).
_DRAWS_PER_CHUNK = 1 << 16
# Each chunk costs 10-15 us of numpy calls whatever its size (one thread,
# 15M trials: about +10% time at 2^14 draws per chunk, +25% at 2^13), so
# chunks keep at least 2^14 draws, which caps the threads.
_MAX_THREADS = _DRAWS_PER_CHUNK >> 14
# Raw words per Philox counter step; worker ranges start on a step.
_WORDS_PER_STEP = 4
# Leading bits of a raw word that index the bucket table; a bucket split
# by a CDF threshold holds the sentinel _SPLIT (codes are at most 31).
_BUCKET_BITS = 12
_SPLIT = 255


@dataclass(frozen=True)
class HonestProverModel:
    """Physical model of the honest source, analyzers, and detectors."""

    amp_a: float = DEFAULT_AMP_A
    amp_b: float = DEFAULT_AMP_B
    angles_a_deg: tuple[float, float] = DEFAULT_ANGLES_A_DEG
    angles_p_deg: tuple[float, float] = DEFAULT_ANGLES_P_DEG
    eta_a: float = DEFAULT_ETA
    eta_p: float = DEFAULT_ETA
    dark_count: float = DEFAULT_DARK_COUNT
    p_pair: float = DEFAULT_PAIR_PROB
    d_sim: float = DEFAULT_MISMATCH

    def __post_init__(self):
        if abs(self.amp_a**2 + self.amp_b**2 - 1.0) > 1e-12:
            raise ValueError("state amplitudes must satisfy a^2 + b^2 = 1")
        for eta in (self.eta_a, self.eta_p):
            if not 0.0 <= eta <= 1.0:
                raise ValueError("detection efficiency must lie in [0, 1]")
        if not 0.0 <= self.dark_count < 1.0:
            raise ValueError("dark-count probability must lie in [0, 1)")
        if not 0.0 <= self.p_pair <= 1.0:
            raise ValueError("pair probability must lie in [0, 1]")
        if not 0.0 <= self.d_sim < 1.0:
            raise ValueError("mismatch spread must lie in [0, 1)")
        if len(self.angles_a_deg) != 2 or len(self.angles_p_deg) != 2:
            raise ValueError("two analyzer angles per side")


def honest_matched(model: HonestProverModel) -> ConditionalDistribution2:
    """Detection behavior sigma[ma, mp, oa, op] before mismatch spreading.

    Joint detection follows the Born rule through the analyzers, thinned
    by the efficiencies and the pair probability; dark counts are OR-ed
    onto each detector independently.  Outcome 1 is no detection.
    """
    a, b = model.amp_a, model.amp_b
    out = np.zeros((2, 2, 2, 2))
    da, dp = model.dark_count, model.dark_count
    for ma in range(2):
        alpha = math.radians(model.angles_a_deg[ma])
        ca, sa = math.cos(alpha), math.sin(alpha)
        for mp in range(2):
            beta = math.radians(model.angles_p_deg[mp])
            cb, sb = math.cos(beta), math.sin(beta)
            joint = (a * ca * cb + b * sa * sb) ** 2
            marg_a = a * a * ca * ca + b * b * sa * sa
            marg_p = a * a * cb * cb + b * b * sb * sb
            q11 = model.p_pair * model.eta_a * model.eta_p * joint
            qa = model.p_pair * model.eta_a * marg_a
            qp = model.p_pair * model.eta_p * marg_p
            q10 = qa - q11
            q01 = qp - q11
            q00 = 1.0 - q11 - q10 - q01
            # Dark counts promote non-detections independently.
            p11 = q11 + q10 * dp + q01 * da + q00 * da * dp
            p10 = q10 * (1 - dp) + q00 * da * (1 - dp)
            p01 = q01 * (1 - da) + q00 * (1 - da) * dp
            p00 = q00 * (1 - da) * (1 - dp)
            out[ma, mp, 0, 0] = p00
            out[ma, mp, 0, 1] = p01
            out[ma, mp, 1, 0] = p10
            out[ma, mp, 1, 1] = p11
    return ConditionalDistribution2(out)


def honest_distribution(model: HonestProverModel) -> ConditionalDistribution3:
    """Full honest trial behavior including the mismatch spread d_sim."""
    return regularize(honest_matched(model), model.d_sim)


def source_robustness(model: HonestProverModel) -> float:
    """Entanglement-rate contribution of the source per trial.

    For a pure pair state the robustness is (sum of Schmidt coefficients)
    squared minus one, weighted by the pair probability.
    """
    return model.p_pair * ((abs(model.amp_a) + abs(model.amp_b)) ** 2 - 1.0)


@dataclass(frozen=True)
class AdversaryModel:
    """A cheating strategy presented as a full trial behavior."""

    kind: str
    behavior: ConditionalDistribution3

    @classmethod
    def lr_vertex(cls, index: int) -> "AdversaryModel":
        """Deterministic strategy: both stations report the same output."""
        if not 0 <= index < 16:
            raise ValueError("vertex index must lie in 0..15")
        sigma2 = lr_vertices()[index]
        return cls(f"lr-vertex-{index}", _matched_to_full(sigma2))

    @classmethod
    def lr_mixture(cls, weights) -> "AdversaryModel":
        """Convex mixture of the deterministic strategies."""
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (16,) or (w < 0).any() or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("need 16 nonnegative weights summing to 1")
        sigma2 = (lr_vertices() * w[:, None, None, None, None]).sum(axis=0)
        return cls("lr-mixture", _matched_to_full(sigma2))

    @classmethod
    def ns3_point(cls, mu) -> "AdversaryModel":
        """General no-signaling strategy mu[ma, b, bp, oa, za, zb]."""
        m = np.asarray(mu, dtype=np.float64).reshape(2, 2, 2, 2, 2, 2)
        if not _NS3.contains(m, tol=1e-9):
            raise ValueError("behavior violates the no-signaling polytope")
        full = np.empty((2, 2, 2, 2, 2))
        for mp in range(2):
            full[:, mp] = m[:, mp, mp]
        return cls("ns3-point", ConditionalDistribution3(np.clip(full, 0.0, None)))


def _matched_to_full(sigma2: np.ndarray) -> ConditionalDistribution3:
    """Embed a matched behavior: both stations report the prover outcome."""
    full = np.zeros((2, 2, 2, 2, 2))
    for z in range(2):
        full[:, :, :, z, z] = sigma2[:, :, :, z]
    return ConditionalDistribution3(full)


def sample_trials(sigma3: ConditionalDistribution3, nu, count: int, key: int,
                  workers: int | None = None) -> np.ndarray:
    """Draw count i.i.d. trials as packed uint8 codes.

    Settings follow nu jointly with the behavior's outcomes.  Trial t takes
    raw word t of a Philox counter keyed with key, and its code is
    searchsorted(cdf, u, side="right") for the float u = (w >> 11) 2^-53
    that Generator.random makes from w.  Scaling by 2^53 is exact, so
    cdf_i <= u exactly when w >> 11 >= thr_i = ceil(cdf_i 2^53), and the
    codes are counted against these integer thresholds: a table on the top
    _BUCKET_BITS bits of w, the integer part of v = u 2^_BUCKET_BITS, gives
    the code of every bucket that no threshold splits, and only draws in
    the (at most 31) split buckets are searched, v against
    thr_i 2^(_BUCKET_BITS - 53); both scalings are exact, as thr_i <= 2^53.
    The CDF is made nondecreasing (np.maximum.accumulate), so a cell with a
    tiny negative probability is never drawn and each code depends on its
    own word only; where every cell probability is >= 0 this changes
    nothing, and the stream is byte-identical to that float lookup, for a
    given key on any platform.

    At most workers threads sample (workers=None: no limit of its own),
    never more than the CPUs this process may run on (threads beyond them
    only wait for the GIL: 4 threads on 2 cores took 1.5 times as long as
    2) and never more than _MAX_THREADS.  [0, count) is cut into chunks of
    _DRAWS_PER_CHUNK // threads draws, a multiple of the 4 words of a
    Philox counter step, and each of min(threads, chunks) threads claims
    the next unclaimed chunk until none is left, drawing the chunk from pos
    with its Philox advanced to pos // 4 and writing its own slice of the
    result; so the bytes are the same for every thread count, and a thread
    slowed by other load claims fewer chunks.  The calling thread draws raw
    words (random_raw), whose allocations land in the main malloc arena
    that later calls reuse; pool threads draw through Generator.random into
    buffers allocated here, since a pool thread's own arena would keep its
    allocations resident.  Generator.random costs about 1.3 times
    random_raw per word, so the calling thread keeps the raw path.  The
    work buffers hold _DRAWS_PER_CHUNK draws in all.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if workers is not None and workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    threads = min(workers or _MAX_THREADS, _MAX_THREADS, _cpus())
    probs = cell_probabilities(sigma3, settings_weights(nu)).reshape(32)
    cdf = np.maximum.accumulate(np.cumsum(probs))
    cdf[-1] = 1.0
    thr = np.ceil(cdf * 2.0**53).astype(np.uint64)
    thr_v = thr * 2.0 ** (_BUCKET_BITS - 53)
    # Bucket b holds the words whose top bits are b: w >> 11 runs over
    # [b << width, (b + 1) << width).
    width = 53 - _BUCKET_BITS
    lo = np.arange(1 << _BUCKET_BITS, dtype=np.uint64)[:, None] << width
    split = ((lo < thr) & (thr < lo + (1 << width))).any(axis=1)
    table = np.where(split, _SPLIT, (thr <= lo).sum(axis=1)).astype(np.uint8)
    out = np.empty(count, dtype=np.uint8)
    chunk = _DRAWS_PER_CHUNK // threads // _WORDS_PER_STEP * _WORDS_PER_STEP
    chunks = -(-count // chunk)
    claims = itertools.count()
    claim_lock = threading.Lock()

    def claimed(bitgen):
        """(pos, n) of each chunk this thread claims, bitgen advanced to pos."""
        drawn = 0
        while True:
            with claim_lock:
                c = next(claims)
            if c >= chunks:
                return
            pos = c * chunk
            bitgen.advance((pos - drawn) // _WORDS_PER_STEP)
            n = min(chunk, count - pos)
            drawn = pos + n
            yield pos, n

    def fill_raw(bucket, mask):
        bitgen = np.random.Philox(key=key)
        for pos, n in claimed(bitgen):
            raw = bitgen.random_raw(n)
            bn, mn, codes = bucket[:n], mask[:n], out[pos : pos + n]
            # uintp has intp's width; where that is 64 bits, no cast.
            np.right_shift(raw, 64 - _BUCKET_BITS, out=bn.view(np.uintp), casting="unsafe")
            np.take(table, bn, out=codes, mode="clip")
            np.equal(codes, _SPLIT, out=mn)
            amb = np.flatnonzero(mn)
            codes[amb] = np.searchsorted(thr, raw[amb] >> 11, side="right")
            del raw  # before the next chunk's words are drawn

    def fill_float(v, bucket, mask):
        gen = np.random.Generator(np.random.Philox(key=key))
        for pos, n in claimed(gen.bit_generator):
            vn, bn, mn, codes = v[:n], bucket[:n], mask[:n], out[pos : pos + n]
            # Only into the caller's buffers (take buffers its output in
            # mode "raise"), so a pool thread allocates no work memory.
            gen.random(out=vn)
            np.multiply(vn, float(1 << _BUCKET_BITS), out=vn)
            np.copyto(bn, vn, casting="unsafe")
            np.take(table, bn, out=codes, mode="clip")
            np.equal(codes, _SPLIT, out=mn)
            amb = np.flatnonzero(mn)
            codes[amb] = np.searchsorted(thr_v, vn[amb], side="right")

    size = min(chunk, count)
    pool_buffers = [(np.empty(size), np.empty(size, dtype=np.intp), np.empty(size, dtype=np.bool_))
                    for _ in range(min(threads, chunks) - 1)]
    # The pool starts a thread per submitted job only.
    with ThreadPoolExecutor(max_workers=max(1, len(pool_buffers))) as pool:
        rest = [pool.submit(fill_float, *buffers) for buffers in pool_buffers]
        fill_raw(np.empty(size, dtype=np.intp), np.empty(size, dtype=np.bool_))
        for future in rest:
            future.result()
    return out


def _cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def stream_key(seed: int, index: int) -> int:
    """Distinct Philox key for stream index under a 64-bit run seed."""
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    if not 0 <= index < 1 << 63:
        raise ValueError("stream index out of range")
    return (seed << 64) | index
