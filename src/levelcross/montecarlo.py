"""
levelcross.montecarlo
=====================

Independent oracles for the closed-form crossing statistics:

* exact-discretization path simulation for the two linear SDE systems
  (damped oscillator, OU-driven mean reversion) and circulant-embedding
  sampling for arbitrary kernels, with vectorized crossing counting and a
  reproducible per-trial substream RNG scheme.  Each thread keeps one pool
  of generators for its whole life and re-keys it to the trials of every
  chunk, so no call builds generators after the thread's first (see
  _trial_rngs for why iterators may share it).  The linear systems make
  each chunk's paths one time block at a time, stepping the states with
  one BLAS product into reused buffers.  estimate_stats screens each block
  for crossings as it is made, so its memory does not grow with the
  horizon, but for the end states of the few steps kept for bridge
  refinement, which it refines a group of trials at a time once they are
  many.  The circulant sampler transforms its trials in groups, one
  FFT pair a group rather than a trial; a group is bounded by its number
  of samples, not of trials, so that a long embedding ring does not
  allocate many rings at once;
* crossing counts: for the two linear systems, of the continuous-time path,
  by exact Gaussian-bridge refinement of every step that could hide a
  crossing; for arbitrary kernels, of sign changes between samples, which
  misses excursions shorter than one step;
* brute-force numerical integration of the pre-closed-form definitions:
  the 2D velocity integrals of the excess integrands, the canonical
  wedge/plane integrals behind the closed forms, and the finite-horizon
  variance assembled from the brute-force integrand.

The brute-force integrand computes the density difference f_Q - f_P f_P
pointwise via expm1 rather than subtracting the two integrals afterwards;
at strongly decorrelated lags the difference is dozens of orders of
magnitude below either term, and only the pointwise form keeps it to full
relative precision.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from scipy.integrate import dblquad, nquad, quad
from scipy.linalg import expm, solve_lyapunov
from scipy.special import erfcx as _erfcx

from .crossings import CrossingMode, DegenerateLagError, _bracket, _mode
from .kernels import Kernel, KernelError, make_ou_mean_revert, make_sdho
from .special import erf, erfc, owens_t

__all__ = [
    "SimConfig",
    "SimEstimate",
    "SimulationConfigError",
    "simulate_sdho_paths",
    "simulate_ou_system_paths",
    "simulate_kernel_paths",
    "count_crossings",
    "estimate_stats",
    "sampled_mean_exact",
    "bruteforce_integrand_up",
    "bruteforce_integrand_total",
    "bruteforce_theorem_integrals",
    "theorem_up_closed_form",
    "theorem_total_closed_form",
    "bruteforce_variance",
    "LEMMA_CHECKS",
    "lemma_residuals",
]

_SQRT_PI = math.sqrt(math.pi)


class SimulationConfigError(ValueError):
    """Invalid simulation configuration or failed transition-matrix setup."""


@dataclass(frozen=True)
class SimConfig:
    """One Monte Carlo experiment: system, window, step, trials, seed, level."""

    system: str                       # "sdho" | "ou" | "kernel"
    params: dict = field(default_factory=dict)
    kernel: Kernel | None = None      # required for system="kernel"
    T: float = 100.0
    dt: float = 0.01
    trials: int = 1000
    seed: int = 0
    u: float = 0.0
    mode: CrossingMode = CrossingMode.UP

    def __post_init__(self):
        if not (0.0 < self.T < math.inf and 0.0 < self.dt < math.inf):
            raise SimulationConfigError(
                f"T and dt must be finite and > 0 (got T={self.T}, dt={self.dt})")
        if self.n_steps < 1:
            raise SimulationConfigError(f"T={self.T} holds no step of dt={self.dt}")
        for name, least in (("trials", 2), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
                raise SimulationConfigError(
                    f"{name} must be an integer >= {least} (got {value!r})")
        if self.system == "kernel":
            if self.kernel is None:
                raise SimulationConfigError("system='kernel' requires a kernel")
            if self.params:
                raise SimulationConfigError(
                    f"params must be empty for system='kernel', whose kernel holds its "
                    f"parameters (got {self.params!r})")
            kernel = self.kernel
        elif self.system in ("sdho", "ou"):
            if self.kernel is not None:
                raise SimulationConfigError(
                    f"kernel must be None for system={self.system!r}, whose params "
                    f"set its kernel (got {self.kernel!r})")
            # The system's own kernel checks its parameters.
            make = make_sdho if self.system == "sdho" else make_ou_mean_revert
            try:
                kernel = make(**self.params)
            except (KernelError, TypeError) as exc:
                raise SimulationConfigError(f"{self.system} params: {exc}") from exc
        else:
            raise SimulationConfigError(f"unknown system {self.system!r}")
        if self.dt > 0.05 * kernel.tau_fast:
            raise SimulationConfigError(
                f"dt={self.dt} too coarse: must be <= 0.05 * tau_fast = {0.05 * kernel.tau_fast}"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    variance: float
    fano: float
    se_mean: float
    se_variance: float
    se_fano: float
    trials: int
    total_crossings: int


# SeedSequence's hash constants (numpy/random/bit_generator.pyx).
_SEED_INIT_A, _SEED_MULT_A = 0x43B0D7E5, 0x931E8875
_SEED_INIT_B, _SEED_MULT_B = 0x8B51F9DD, 0x58F38DED
_SEED_MIX_L, _SEED_MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(words: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hashmix of uint32 words; returns them and the next constant."""
    nxt = const * mult % 2**32
    words = (words ^ np.uint32(const)) * np.uint32(nxt)
    return words ^ (words >> np.uint32(16)), nxt


def _trial_keys(seed: int, start: int, stop: int) -> np.ndarray:
    """Philox keys of trials start..stop-1.

    Row i is SeedSequence(seed, spawn_key=(start + i,)).generate_state(2,
    uint64).  A spawn key below 2**32 adds one word to the pool of
    SeedSequence(seed), so that pool is built once and every trial's word is
    mixed into it at once.  Building a SeedSequence and a Philox per trial
    instead costs about 30 us a trial.
    """
    pool = np.random.SeedSequence(seed).pool
    # The pool took 4 hashes to fill, 12 to mix and 4 per seed word past 4.
    seed_words = max(1, -(-int(seed).bit_length() // 32))
    const = _SEED_INIT_A * pow(_SEED_MULT_A, 16 + 4 * max(0, seed_words - 4), 2**32) % 2**32
    trial = np.arange(start, stop, dtype=np.uint32)
    words = np.empty((4, trial.size), dtype=np.uint32)
    for i in range(4):
        hashed, const = _hashmix(trial, const, _SEED_MULT_A)
        mixed = np.uint32(_SEED_MIX_L * int(pool[i]) % 2**32) - np.uint32(_SEED_MIX_R) * hashed
        words[i] = mixed ^ (mixed >> np.uint32(16))
    const = _SEED_INIT_B
    for i in range(4):
        words[i], const = _hashmix(words[i], const, _SEED_MULT_B)
    wide = words.astype(np.uint64)
    return np.stack((wide[0] | wide[1] << np.uint64(32), wide[2] | wide[3] << np.uint64(32)), axis=1)


def _rekey(rng: np.random.Generator, key: np.ndarray) -> None:
    """Restart rng's Philox stream as a fresh Philox(key=key) would start."""
    zero = np.zeros(4, dtype=np.uint64)
    rng.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": zero, "key": key},
        "buffer": zero, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }


_CHUNK = 256
_POOL = threading.local()


def _pool() -> list[np.random.Generator]:
    """This thread's _CHUNK generators, built on its first call and kept for
    the thread's life."""
    if not hasattr(_POOL, "rngs"):
        # _rekey sets every key before use, so the pool's own key never
        # matters, and one shared SeedSequence spares one per generator.
        seed = np.random.SeedSequence(0)
        _POOL.rngs = [np.random.Generator(np.random.Philox(seed)) for _ in range(_CHUNK)]
    return _POOL.rngs


def _trial_rngs(config: SimConfig) -> Iterator[tuple[int, list[np.random.Generator]]]:
    """Yield (first_trial_index, rngs), one chunk of trials at a time.

    Counter-style substreams: trial i draws from Philox keyed by
    SeedSequence(seed, spawn_key=(i,)), identical regardless of scheduling.
    rngs are the first generators of the calling thread's pool (_pool),
    re-keyed for each chunk, so every iterator of the thread shares them.
    That is safe because no pool generator is used across a yield to the
    caller of a public iterator: a chunk draws all its paths between its
    re-keying and its first path's yield.  The one exception is
    _trial_counts, whose time blocks and bridge draw from a chunk's rngs
    before asking for the next chunk, within one call.
    """
    for start in range(0, config.trials, _CHUNK):
        keys = _trial_keys(config.seed, start, min(start + _CHUNK, config.trials))
        rngs = _pool()[:len(keys)]
        for rng, key in zip(rngs, keys):
            _rekey(rng, key)
        yield start, rngs


def _linear_system(config: SimConfig):
    """Drift matrix, diffusion outer product, stationary covariance."""
    if config.system == "sdho":
        w = config.params["omega0"]
        z = config.params["zeta"]
        th = config.params["theta"]
        drift = np.array([[0.0, 1.0], [-w * w, -2.0 * z * w]])
        noise2 = 4.0 * z * w * th
        diffusion = np.array([[0.0, 0.0], [0.0, noise2]])
        stationary = np.diag([th / w**2, th])
        return drift, diffusion, stationary
    if config.system == "ou":
        sig = config.params["sigma"]
        tf = config.params["tau_f"]
        te = config.params["tau_e"]
        drift = np.array([[-1.0 / tf, 0.0], [1.0 / te, -1.0 / te]])
        diffusion = np.array([[2.0 * sig * sig / tf, 0.0], [0.0, 0.0]])
        stationary = solve_lyapunov(drift, -diffusion)
        return drift, diffusion, stationary
    raise SimulationConfigError(f"no linear system for {config.system!r}")


def _cholesky(cov: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise SimulationConfigError(
            f"{what} not positive definite (extreme parameters): {exc}"
        ) from exc


def _propagator(drift: np.ndarray, stationary: np.ndarray, h: float):
    """Exact propagator over a time h and the covariance of the noise it adds."""
    prop = expm(drift * h)
    cov = stationary - prop @ stationary @ prop.T
    return prop, 0.5 * (cov + cov.T)


def _transition(config: SimConfig):
    """Exact one-step propagator and conditional-noise Cholesky factor."""
    drift, _, stationary = _linear_system(config)
    prop, cond_cov = _propagator(drift, stationary, config.dt)
    chol_station = _cholesky(stationary, "stationary covariance")
    chol_cond = _cholesky(cond_cov, "transition covariance")
    return prop, chol_cond, chol_station


_TRANSPOSE_STEPS = 32
# Most steps in one time block of _linear_chunks, a multiple of
# _TRANSPOSE_STEPS: at a full chunk, each of the two block buffers holds
# 2 MB however long the horizon.
_BLOCK_STEPS = 512


def _linear_chunks(config: SimConfig):
    """Yield (first_trial_index, rngs, blocks), one chunk of trials at a time.

    blocks yields the chunk's states one time block at a time, each of shape
    (k+1, 2, chunk): the state at the sample before the block's k steps (for
    the first block, the initial state), then after each of them.  So every
    step of the path lies in exactly one block, and a block holds at most
    _BLOCK_STEPS steps.  For each block, every trial draws the block's
    normals from its own stream; a Philox stream continues across calls, so
    these are the bits of one draw of the whole path.  Each step adds prop @
    state to the step's noise, computed by np.dot into one (2, chunk)
    buffer: the same dgemm as the @ operator, so the same bits, without a
    new array per step.  rngs are the chunk's per-trial generators from
    _trial_rngs; once blocks is exhausted they are left just after the
    draws that made the paths, so any later draw for a trial comes from that
    trial's own stream whatever the chunking.  A block is overwritten by the
    next, and the next chunk (or any other pool user of the thread) re-keys
    rngs, so exhaust blocks and use rngs before asking for the next chunk.
    """
    prop, chol_cond, chol_station = _transition(config)
    n = config.n_steps
    span = min(_BLOCK_STEPS, n)
    # One buffer each for the whole run; a narrower last chunk takes a prefix.
    size = 2 * (span + 1) * min(_CHUNK, config.trials)
    noise_buf, state_buf = np.empty(size), np.empty(size)

    def blocks(rngs):
        width = len(rngs)
        noise = noise_buf[:2 * (span + 1) * width].reshape(width, span + 1, 2)
        states = state_buf[:noise.size].reshape(span + 1, 2, width)
        step = np.empty((2, width))
        # Blocks start at steps 1 + j * span, and span is a multiple of
        # _TRANSPOSE_STEPS unless there is one block, so every transpose
        # below covers the steps it would on the whole path.
        for first in range(1, n + 1, span):
            k = min(span, n + 1 - first)
            z, s = noise[:, :k + 1], states[:k + 1]
            head = 0 if first == 1 else 1
            for row, rng in zip(z, rngs):
                rng.standard_normal(out=row[head:])
            s[0] = chol_station @ z[:, 0, :].T if first == 1 else states[span]
            # Step noise, transposed into place a few steps at a time: one
            # whole-block transpose runs several times slower, out of cache.
            for i in range(1, k + 1, _TRANSPOSE_STEPS):
                block = z[:, i:i + _TRANSPOSE_STEPS].transpose(2, 1, 0).reshape(2, -1)
                s[i:i + _TRANSPOSE_STEPS] = (
                    (chol_cond @ block).reshape(2, -1, width).transpose(1, 0, 2))
            for cur, nxt in zip(s[:-1], s[1:]):
                np.dot(prop, cur, out=step)
                nxt += step
            yield s

    for start, rngs in _trial_rngs(config):
        yield start, rngs, blocks(rngs)


def _paths_from_blocks(blocks) -> Iterator[np.ndarray]:
    for block in blocks:
        for j in range(block.shape[1]):
            yield block[:, j].copy()


# Observed coordinate of each linear system's state.
_OBSERVED = {"sdho": 0, "ou": 1}


def _observed_blocks(config: SimConfig) -> Iterator[np.ndarray]:
    """Each chunk's observed coordinate, of shape (n_steps+1, chunk).

    Every block of a chunk is drawn before the chunk is yielded: another
    iterator of the thread may re-key the pool between yields.
    """
    row = _OBSERVED[config.system]
    n = config.n_steps
    buf = np.empty((n + 1) * min(_CHUNK, config.trials))
    for _, rngs, blocks in _linear_chunks(config):
        x = buf[:(n + 1) * len(rngs)].reshape(n + 1, len(rngs))
        at = 0
        for states in blocks:
            x[at:at + len(states)] = states[:, row]
            at += len(states) - 1
        yield x


def simulate_sdho_paths(config: SimConfig) -> Iterator[np.ndarray]:
    """Stationary oscillator position paths via the exact Gaussian transition."""
    if config.system != "sdho":
        raise SimulationConfigError("config.system must be 'sdho'")
    return _paths_from_blocks(_observed_blocks(config))


def simulate_ou_system_paths(config: SimConfig) -> Iterator[np.ndarray]:
    """Stationary mean-reverting observable paths (the y component)."""
    if config.system != "ou":
        raise SimulationConfigError("config.system must be 'ou'")
    return _paths_from_blocks(_observed_blocks(config))


def _circulant_spectrum(kernel: Kernel, n: int, dt: float) -> np.ndarray:
    """Eigenvalues of a non-negative-definite circulant embedding of r(k dt)."""
    m = n - 1
    for _ in range(12):
        cov = kernel.eval_array(np.arange(m + 1) * dt).r
        ring = np.concatenate([cov, cov[-2:0:-1]])
        eig = np.fft.rfft(ring).real
        if eig.min() >= -1e-12 * eig.max():
            return np.clip(eig, 0.0, None), m
        m *= 2
    raise SimulationConfigError("circulant embedding failed to become non-negative definite")


# Most normals one group of the circulant sampler transforms at once: 16
# trials on a ring of 2000 (groups of 8 to 64 trials run alike), one on a ring
# of 32000 or more, where a fixed 16 would hold some 200 MB at ring 512000.
_GROUP_SAMPLES = 2**15


def _kernel_chunks(kernel: Kernel, config: SimConfig) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first_trial_index, block), block of shape (n_steps+1, chunk).

    Each trial's normals fill one row of a group buffer, and one rfft/irfft
    pair over the rows gives the bits of one pair per trial.
    """
    n = config.n_steps + 1
    eig, m = _circulant_spectrum(kernel, n, config.dt)
    ring = 2 * m
    scale = np.sqrt(eig / ring)
    z = np.empty((min(max(1, _GROUP_SAMPLES // ring), _CHUNK, config.trials), ring))
    for start, rngs in _trial_rngs(config):
        block = np.empty((n, len(rngs)))
        for lo in range(0, len(rngs), len(z)):
            group = z[:len(rngs) - lo]
            for row, rng in zip(group, rngs[lo:]):
                rng.standard_normal(out=row)
            spec = np.fft.rfft(group, axis=1) * scale * math.sqrt(ring)
            block[:, lo:lo + len(group)] = np.fft.irfft(spec, n=ring, axis=1)[:, :n].T
        yield start, block


def simulate_kernel_paths(kernel: Kernel, config: SimConfig) -> Iterator[np.ndarray]:
    """Stationary Gaussian paths with covariance r(|i-j| dt), circulant
    embedding; kernel must be config.kernel, against which dt was checked."""
    if kernel is not config.kernel:
        raise SimulationConfigError(
            f"kernel must be config.kernel (got {kernel!r} against {config.kernel!r})")
    return _paths_from_blocks(block for _, block in _kernel_chunks(kernel, config))


def _crossed(below_a: np.ndarray, below_b: np.ndarray, mode: CrossingMode) -> np.ndarray:
    """Crossing indicator of sample pairs (a, b), given a < u and b < u.

    Half-open convention: up is a < u <= b, down is a >= u > b.
    """
    if mode is CrossingMode.UP:
        return below_a & ~below_b
    if mode is CrossingMode.DOWN:
        return ~below_a & below_b
    return below_a != below_b


def count_crossings(path: np.ndarray, u: float, mode=CrossingMode.UP) -> int:
    """Crossings of level u under the half-open convention x_i < u <= x_{i+1}."""
    mode = _mode(mode)
    x = np.asarray(path)
    if x.size < 2:
        raise ValueError("path needs at least 2 samples")
    below = x < u
    return int(np.count_nonzero(_crossed(below[:-1], below[1:], mode)))


# Bisection depth of the bridge refinement: the finest sub-step is
# dt / 2**_BRIDGE_DEPTH.  On the oscillator at zeta = 2 and step
# 0.01 tau_slow, 5000 trials, the mean count at depth 7 is within 0.1
# standard error of that at depth 9; at depth 6 it is not.
_BRIDGE_DEPTH = 7
# A step is left whole only when its cubic Hermite interpolant stays more than
# this many mid-step conditional standard deviations away from the level, or
# its slope stays that far away from zero.
_BRIDGE_MARGIN = 8.0
# Most steps left to refine that _Bridge.counts refines at once; the cells of
# 256 trials of 2000 steps leave at most about 8,300, so they stay one group.
_REFINE_STEPS = 2**14


def _apply(mat: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mat @ vecs for an (m, 2) matrix and (2, k) columns.

    Written elementwise so that each column's rounding does not depend on
    the other columns, and hence not on how trials are chunked.
    """
    return mat[:, :1] * vecs[0] + mat[:, 1:] * vecs[1]


@dataclass(frozen=True)
class _BridgeLevel:
    """Law of the mid-step state given both end states, for steps of length h.

    The mean is from_start @ s0 + from_end @ s1 and chol factors the
    covariance.  margin and slope_margin are _BRIDGE_MARGIN conditional
    standard deviations of the observed coordinate and of its derivative.
    """

    h: float
    from_start: np.ndarray
    from_end: np.ndarray
    chol: np.ndarray
    margin: float
    slope_margin: float


class _Bridge:
    """Continuous-time crossing counts of a linear system's sampled paths.

    Each step whose crossings its end states do not settle (see _settled)
    is bisected: the mid-step state is drawn from its exact Gaussian law
    given both end states, recursively, down to _BRIDGE_DEPTH levels.  Every
    crossing of the refined path counts.
    """

    def __init__(self, config: SimConfig):
        drift, _, stationary = _linear_system(config)
        self.row = _OBSERVED[config.system]
        # The observed coordinate's time derivative is slope @ state.
        self.slope = drift[self.row:self.row + 1]
        levels = []
        for depth in range(_BRIDGE_DEPTH):
            h = config.dt / 2**depth
            # With s_m = A s0 + N(0, Q) and s1 = A s_m + N(0, Q), the mid-step
            # state given (s0, s1) has covariance C = (Q^-1 + A^T Q^-1 A)^-1
            # and mean C (Q^-1 A s0 + A^T Q^-1 s1).
            a, q = _propagator(drift, stationary, h / 2.0)
            q_inv = np.linalg.inv(q)
            cov = np.linalg.inv(q_inv + a.T @ q_inv @ a)
            cov = 0.5 * (cov + cov.T)
            levels.append(_BridgeLevel(
                h=h,
                from_start=cov @ q_inv @ a,
                from_end=cov @ a.T @ q_inv,
                chol=_cholesky(cov, "bridge covariance"),
                margin=_BRIDGE_MARGIN * math.sqrt(cov[self.row, self.row]),
                slope_margin=_BRIDGE_MARGIN * math.sqrt(
                    (self.slope @ cov @ self.slope.T)[0, 0]),
            ))
        self.levels = tuple(levels)

    def _settled(self, ends: np.ndarray, level: _BridgeLevel, u: float) -> np.ndarray:
        """Intervals whose crossings are all counted already.

        ends holds each interval's start state over its end state.  With
        x0, x0', x1, x1' the observed coordinate and its derivative at the two
        ends, the cubic Hermite interpolant lies in the hull of its Bernstein
        control points x0, x0 + h x0'/3, x1 - h x1'/3, x1, and its derivative
        in the hull of x0', m, x1' with m = 3 (x1 - x0) / h - x0' - x1'.  An
        interval is settled when the first hull stays beyond level.margin
        from u (it holds no crossing), or the second stays beyond
        level.slope_margin from 0 (the path is monotone there, so its two
        ends show whether it crosses).
        """
        x0, x1 = ends[self.row], ends[2 + self.row]
        d0, d1 = _apply(self.slope, ends[:2])[0], _apply(self.slope, ends[2:])[0]
        reach = level.h / 3.0
        p1, p2 = x0 + reach * d0, x1 - reach * d1
        lo = np.minimum(np.minimum(x0, x1), np.minimum(p1, p2))
        hi = np.maximum(np.maximum(x0, x1), np.maximum(p1, p2))
        dm = (x1 - x0) / reach - d0 - d1
        d_lo = np.minimum(np.minimum(d0, d1), dm)
        d_hi = np.maximum(np.maximum(d0, d1), dm)
        return ((lo > u + level.margin) | (hi < u - level.margin)
                | (d_lo > level.slope_margin) | (d_hi < -level.slope_margin))

    def _unsettled(self, trial: np.ndarray, ends: np.ndarray, level: _BridgeLevel,
                   u: float) -> tuple[np.ndarray, np.ndarray]:
        """The intervals of (trial, ends) that _settled leaves to refine."""
        keep = ~self._settled(ends, level, u)
        return trial.compress(keep), ends.compress(keep, axis=1)

    def _screen(self, states: np.ndarray, u: float, mode: CrossingMode):
        """(counts, trial, ends) of one block from _linear_chunks.

        counts are each trial's crossings between the block's samples;
        trial and ends are the steps left to refine, ordered by trial, then
        time, with each step's start state over its end state in ends.  A
        cheap screen comes first: a sample farther from u than `band`, the
        first level's margin plus h/3 times the largest slope of any trial
        at that time, puts its control point beyond that margin.  A step
        with two such ends and no sign change is settled and holds no
        crossing, so only the other steps are gathered, and _settled checks
        those at the first level.
        """
        x = states[:, self.row]
        below = x < u
        first = self.levels[0]
        slope_bound = sum(abs(c) * np.abs(states[:, k]).max(axis=1)
                          for k, c in enumerate(self.slope[0]) if c != 0.0)
        band = (first.margin + first.h / 3.0 * slope_bound)[:, None]
        near = (x > u - band) & (x < u + band)
        candidates = near[:-1] | near[1:] | (below[:-1] != below[1:])
        n, _, width = states.shape
        trial, step = np.divmod(np.flatnonzero(candidates.T), n - 1)
        # In the flattened block a step's four end coordinates sit width
        # apart from states[step, 0, trial].
        at = step * (2 * width) + trial
        ends = states.reshape(-1)[at + width * np.arange(4)[:, None]]
        sampled = _crossed(ends[self.row] < u, ends[2 + self.row] < u, mode)
        counts = np.bincount(trial, weights=sampled, minlength=width).astype(np.int64)
        return (counts, *self._unsettled(trial, ends, first, u))

    def _gather(self, blocks, u: float, mode: CrossingMode):
        """(counts, trial, ends) of a whole chunk from _linear_chunks.

        Each time block is screened as it is made (see _screen), so of a
        block only the end states of the steps left to refine outlive it.
        Those are then ordered by trial, then time, so that each trial's
        refinement draws come from its stream in a fixed order, after all
        of its path draws.
        """
        counts, trials, ends = zip(*(self._screen(states, u, mode) for states in blocks))
        trial, ends = np.concatenate(trials), np.concatenate(ends, axis=1)
        # A stable radix sort of the blocks' steps by trial (a chunk has
        # fewer than 2**16 trials).
        order = np.argsort(trial.astype(np.uint16), kind="stable")
        return sum(counts), trial[order], ends[:, order]

    def counts(self, blocks, rngs, u: float, mode: CrossingMode) -> np.ndarray:
        """Per-trial crossing counts of one chunk from _linear_chunks.

        The steps that _gather leaves to refine are refined a group of whole
        trials at a time, the fewest groups of equally many trials that
        average at most _REFINE_STEPS steps: every trial still draws in the
        same order, so the counts keep their bits, and the refinement's
        memory stays bounded however many steps are left.
        """
        counts, trial, ends = self._gather(blocks, u, mode)
        width = len(rngs)
        per = math.ceil(width / max(1, math.ceil(trial.size / _REFINE_STEPS)))
        bounds = np.searchsorted(trial, np.arange(0, width + per, per)).tolist()
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            counts += self._refine(trial[lo:hi], ends[:, lo:hi], rngs, u, mode)
        return counts

    def _refine(self, trial: np.ndarray, ends: np.ndarray, rngs, u: float,
                mode: CrossingMode) -> np.ndarray:
        """Per-trial change of the counts by bisecting the steps (trial, ends),
        which are ordered by trial, then time, and unsettled at the first
        level."""
        width = len(rngs)
        counts = np.zeros(width, dtype=np.int64)
        for depth, level in enumerate(self.levels):
            if depth:
                trial, ends = self._unsettled(trial, ends, level, u)
            if not trial.size:
                break
            sizes = np.bincount(trial, minlength=width)
            z = np.concatenate([rngs[j].standard_normal((k, 2))
                                for j, k in enumerate(sizes.tolist()) if k]).T
            s0, s1 = ends[:2], ends[2:]
            mid = _apply(level.from_start, s0) + _apply(level.from_end, s1) + _apply(level.chol, z)
            b0, bm, b1 = s0[self.row] < u, mid[self.row] < u, s1[self.row] < u
            # Replace the step's own crossing by those of its two halves.
            delta = (_crossed(b0, bm, mode).astype(np.int64) + _crossed(bm, b1, mode)
                     - _crossed(b0, b1, mode))
            counts += np.bincount(trial, weights=delta, minlength=width).astype(np.int64)
            ends = np.stack((np.concatenate((s0, mid)), np.concatenate((mid, s1))),
                            axis=2).reshape(4, -1)
            trial = np.repeat(trial, 2)
        return counts


def _trial_counts(config: SimConfig, mode: CrossingMode) -> np.ndarray:
    counts = np.empty(config.trials)
    u = config.u
    if config.system == "kernel":
        for start, block in _kernel_chunks(config.kernel, config):
            below = block < u
            crossed = _crossed(below[:-1], below[1:], mode)
            counts[start:start + block.shape[1]] = np.count_nonzero(crossed, axis=0)
    else:
        bridge = _Bridge(config)
        for start, rngs, blocks in _linear_chunks(config):
            counts[start:start + len(rngs)] = bridge.counts(blocks, rngs, u, mode)
    return counts


def estimate_stats(config: SimConfig, bootstrap: int = 1000) -> SimEstimate:
    """Counts over all trials, with bootstrap standard errors for var and Fano.

    For the linear systems ("sdho", "ou") the count is of the continuous-time
    path: every step that could hide a crossing is refined by exact
    Gaussian-bridge bisection (see _Bridge), so the estimate carries no
    finite-step bias beyond that of sub-steps dt / 2**_BRIDGE_DEPTH.  For
    system="kernel" it is the count of sign changes between samples, which
    misses excursions shorter than dt: its expectation is
    n (Phi(h) - Phi_2(h, h; rho)) for up-crossings, with h = u / sigma and
    rho the one-step autocorrelation (see sampled_mean_exact).  bootstrap
    is the number of resamples behind se_variance and se_fano, at least 2.
    """
    if bootstrap < 2:
        raise ValueError(f"bootstrap must be at least 2 resamples, got {bootstrap}")
    counts = _trial_counts(config, _mode(config.mode))
    n = config.trials
    mean = float(np.mean(counts))
    var = float(np.var(counts, ddof=1))
    fano_est = var / mean if mean > 0 else math.nan
    se_mean = math.sqrt(var / n)
    rng = np.random.Generator(np.random.Philox(key=np.random.SeedSequence(
        entropy=config.seed, spawn_key=(0xB00, 0x757)
    ).generate_state(2, np.uint64)))
    # Resampled a few rows at a time, from the same stream: the whole
    # (bootstrap, trials) resample and its temporaries would set the run's
    # peak memory.
    boot_mean, boot_var = np.empty(bootstrap), np.empty(bootstrap)
    for rows in range(0, bootstrap, 64):
        resampled = counts[rng.integers(0, n, size=(min(64, bootstrap - rows), n))]
        boot_mean[rows:rows + 64] = resampled.mean(axis=1)
        boot_var[rows:rows + 64] = resampled.var(axis=1, ddof=1)
    se_var = float(np.std(boot_var, ddof=1))
    crossed = boot_mean > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        boot_fano = np.where(crossed, boot_var / boot_mean, np.nan)
    # A spread of Fano factors needs two resamples that cross.
    se_fano = float(np.nanstd(boot_fano, ddof=1)) if np.count_nonzero(crossed) > 1 else math.nan
    return SimEstimate(
        mean=mean, variance=var, fano=fano_est,
        se_mean=se_mean, se_variance=se_var, se_fano=se_fano,
        trials=n, total_crossings=int(np.sum(counts)),
    )


def sampled_mean_exact(config: SimConfig) -> float:
    """Expected count of sign changes between samples, what system="kernel"
    counts.

    Each of the n_steps sample pairs (X0, X1) up-crosses, X0 < u <= X1, with
    probability Phi(h) - Phi_2(h, h; rho) = 2 T(h, sqrt((1 - rho) / (1 + rho))),
    where h = u / sqrt(r0), rho = r(dt) / r0 and T is Owen's T function;
    total crossings count twice that.
    """
    if config.system != "kernel":
        raise SimulationConfigError("config.system must be 'kernel'")
    kernel = config.kernel
    rho = kernel.eval(config.dt).r / kernel.r0
    h = config.u / math.sqrt(kernel.r0)
    pair = 2.0 * owens_t(h, math.sqrt((1.0 - rho) / (1.0 + rho)))
    return float(config.n_steps * pair * (2.0 if _mode(config.mode) is CrossingMode.TOTAL else 1.0))


# -- brute-force integrals ----------------------------------------------------

def _joint_quadratics(kernel: Kernel, t: float):
    """Pointwise machinery for f_Q - f_P f_P at (u, u, y1, y2).

    Returns (eta(u, y1, y2), log-det correction) pieces: the 4x4 joint
    covariance of (X_0, X_t, Xdot_0, Xdot_t) is inverted once; eta is the
    exponent difference against the independent product density, and the
    density difference is f_P f_P * expm1(eta).
    """
    d = kernel.eval(t)
    r0, q0 = kernel.r0, kernel.q0
    r, p, q = d.r, d.p, d.q
    cov = np.array([
        [r0, r, 0.0, p],
        [r, r0, -p, 0.0],
        [0.0, -p, q0, q],
        [p, 0.0, q, q0],
    ])
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise DegenerateLagError(f"joint covariance not positive definite at t={t}") from exc
    inv = np.linalg.inv(cov)
    # eta = s_joint - s_product + log-normalization difference.  Both pieces
    # are differences of O(1) quantities that would cancel catastrophically
    # when the lag-t correlations (r, p, q) are tiny, so form them directly
    # from the correlation block E = cov - D (D = block-diagonal part):
    #   inv - D^{-1} = -inv E D^{-1}        (exact, no cancellation)
    #   log det(cov) - log det(D) = sum log1p(eig(D^{-1} E))
    d_inv = np.diag([1.0 / r0, 1.0 / r0, 1.0 / q0, 1.0 / q0])
    corr = cov - np.diag([r0, r0, q0, q0])
    delta = -(inv @ corr) @ d_inv
    delta = 0.5 * (delta + delta.T)
    # Eigenvalues of D^-1 E via the similar symmetric matrix
    # D^-1/2 E D^-1/2: the symmetric solver keeps them accurate even when
    # the joint covariance is nearly singular at short lags.
    d_isqrt = np.sqrt(np.diag(d_inv))
    lam = np.linalg.eigvalsh(corr * np.outer(d_isqrt, d_isqrt))
    log_norm_diff = -0.5 * float(np.sum(np.log1p(lam)))
    product_norm = 1.0 / (4.0 * math.pi**2 * r0 * q0)

    def difference(u: float, y1: float, y2: float) -> float:
        v = np.array([u, u, y1, y2])
        s_product = -u * u / r0 - 0.5 * (y1 * y1 + y2 * y2) / q0
        eta = -0.5 * float(v @ delta @ v) + log_norm_diff
        return product_norm * math.exp(s_product) * math.expm1(eta)

    return difference


def _conditional_spike(kernel: Kernel, u: float, t: float):
    """Location and widths of the velocity distribution conditioned on
    X_0 = X_t = u.

    At small lags the conditional density of (Xdot_0, Xdot_t) collapses to
    a narrow ridge that an adaptive quadrature rule can miss entirely, so
    the quadrature below is told where it lives: returns the conditional
    mean (m1, m2), the sd of y1, the regression slope of y2 on y1, and the
    residual sd of y2 given y1.
    """
    d = kernel.eval(t)
    r0, q0 = kernel.r0, kernel.q0
    a = np.array([[r0, d.r], [d.r, r0]])
    b = np.array([[0.0, d.p], [-d.p, 0.0]])
    c = np.array([[q0, d.q], [d.q, q0]])
    bta = b.T @ np.linalg.inv(a)
    m = bta @ np.array([u, u])
    s = c - bta @ b
    w1 = math.sqrt(max(s[0, 0], 1e-300))
    slope = s[0, 1] / s[0, 0]
    w2 = math.sqrt(max(s[1, 1] - s[0, 1] ** 2 / s[0, 0], 1e-300))
    return float(m[0]), float(m[1]), w1, slope, w2


_QUAD_OPTS = {"limit": 400, "epsabs": 0.0, "epsrel": 1e-11}


def _quadrant_integral(diff, weight, spike, s1: float, s2: float, u: float,
                       cut: float) -> float:
    """Integrate weight(y1, y2) * diff over one velocity quadrant.

    s1, s2 in {+1, -1} select the quadrant; break points along the
    conditional ridge keep the adaptive rule from skipping the narrow
    spike of the joint density at short lags.
    """
    m1, m2, w1, slope, w2 = spike
    pts1 = sorted({min(max(s1 * (m1 + k * w1), 0.0), cut) for k in (-6, -3, 0, 3, 6)})

    def inner_opts(y1):
        mu = s2 * (m2 + slope * (s1 * y1 - m1))
        pts2 = sorted({min(max(mu + k * w2, 0.0), cut) for k in (-6, -3, 0, 3, 6)})
        return dict(_QUAD_OPTS, points=pts2)

    val, _ = nquad(
        lambda y2, y1: weight(y1, y2) * diff(u, s1 * y1, s2 * y2),
        [(0.0, cut), (0.0, cut)],
        opts=[inner_opts, dict(_QUAD_OPTS, points=pts1)],
    )
    return val


def bruteforce_integrand_up(kernel: Kernel, u: float, t: float) -> float:
    """2D velocity-integral definition of the upcrossing excess integrand."""
    diff = _joint_quadratics(kernel, t)
    spike = _conditional_spike(kernel, u, t)
    cut = 12.0 * math.sqrt(kernel.q0)
    return _quadrant_integral(diff, lambda y1, y2: y1 * y2, spike, 1.0, 1.0, u, cut)


def bruteforce_integrand_total(kernel: Kernel, u: float, t: float) -> float:
    """2D velocity-integral definition of the total-crossing excess integrand.

    Integrates |y1 y2| (f_Q - f_P f_P) over the plane, one quadrant at a
    time so the integrand handed to the adaptive rule is smooth.
    """
    diff = _joint_quadratics(kernel, t)
    spike = _conditional_spike(kernel, u, t)
    cut = 12.0 * math.sqrt(kernel.q0)
    weight = lambda y1, y2: abs(y1 * y2)
    return sum(
        _quadrant_integral(diff, weight, spike, s1, s2, u, cut)
        for s1 in (1.0, -1.0)
        for s2 in (1.0, -1.0)
    )


def theorem_up_closed_form(alpha: float, beta: float, gamma: float) -> float:
    """Closed form of the wedge integral int_{|x|<y} (y^2-x^2) e^{-a(x-g)^2-b y^2}."""
    return _bracket(alpha, beta, gamma, False) / math.sqrt(alpha * beta)


def theorem_total_closed_form(alpha: float, beta: float, gamma: float) -> float:
    """Closed form of the full-plane integral with |y^2-x^2| weight."""
    return _bracket(alpha, beta, gamma, True) / math.sqrt(alpha * beta)


def bruteforce_theorem_integrals(alpha: float, beta: float, gamma: float) -> tuple[float, float]:
    """Direct 2D quadrature of the wedge and full-plane canonical integrals.

    For |gamma| large the wedge integral is exponentially small relative to
    the unconstrained Gaussian mass, so the quadrature runs on the integrand
    scaled by the exponent's maximum over the wedge (attained on y = |x| at
    x = alpha gamma / (alpha+beta)); the exact factor is restored afterwards.
    """
    if alpha <= 0 or beta <= 0:
        raise ValueError("alpha and beta must be > 0")
    apb = alpha + beta
    g_star = alpha * beta * gamma * gamma / apb  # min of the exponent on the wedge

    def scaled(x: float, y: float) -> float:
        return math.exp(g_star - alpha * (x - gamma) ** 2 - beta * y * y)

    # Keep only the region where the scaled exponent is above -80.
    wx = math.sqrt((g_star + 80.0) / alpha)
    y_hi = math.sqrt((g_star + 80.0) / beta) + 1.0
    wedge, _ = dblquad(
        lambda y, x: (y * y - x * x) * scaled(x, y),
        gamma - wx, gamma + wx, lambda x: abs(x), y_hi, epsabs=1e-13, epsrel=1e-11,
    )
    wedge *= math.exp(-g_star)
    # Complement region |y| < |x| (folded by evenness in y); its exponent
    # maximum is 0 at (gamma, 0), so no scaling is needed.
    wxc = math.sqrt(80.0 / alpha)
    inner, _ = dblquad(
        lambda y, x: (x * x - y * y) * math.exp(-alpha * (x - gamma) ** 2 - beta * y * y),
        gamma - wxc, gamma + wxc, 0.0, lambda x: abs(x), epsabs=1e-13, epsrel=1e-11,
    )
    total = 2.0 * wedge + 2.0 * inner
    return wedge, total


def bruteforce_variance(kernel: Kernel, u: float, T: float, mode=CrossingMode.UP) -> float:
    """Finite-horizon variance from the brute-force integrand (small T only)."""
    from .crossings import mean_count

    mode = _mode(mode)
    if mode is CrossingMode.TOTAL:
        integrand = lambda t: bruteforce_integrand_total(kernel, u, t)  # noqa: E731
    else:
        integrand = lambda t: bruteforce_integrand_up(kernel, u, t)  # noqa: E731
    lag, _ = quad(
        lambda t: (1.0 - t / T) * integrand(t),
        1e-7 * kernel.tau_slow, T, epsabs=1e-12, epsrel=1e-8, limit=200,
    )
    return mean_count(kernel, u, T, mode) + 2.0 * T * lag


# -- identity checks behind the closed forms ----------------------------------

def _lemma_inner(draw):
    """Inner y-integral over the wedge at fixed x, vs its erfc closed form.

    Both sides are divided by the common positive factor
    exp(-alpha (x-gamma)^2 - beta x^2) (and y shifted to |x| + w) so the
    comparison runs at O(1) scale: the raw values can sit below 1e-30,
    where neither quadrature nor erfc carries relative precision.
    """
    beta, x = draw["beta"], draw["x"]
    ax = abs(x)
    lhs, _ = quad(
        lambda w: (2.0 * ax * w + w * w) * math.exp(-beta * w * (2.0 * ax + w)),
        0.0, 40.0 / math.sqrt(beta), epsabs=1e-15, epsrel=1e-13, limit=200,
    )
    rhs = ax / (2.0 * beta) - _SQRT_PI / (4.0 * beta**1.5) * (
        2.0 * beta * x * x - 1.0
    ) * _erfcx(math.sqrt(beta) * ax)
    return lhs, rhs


def _lemma_abs_gaussian(draw):
    """Integral of |x| against a product of two shifted Gaussians.

    Both sides are divided by the peak value exp(-alpha beta gamma^2 / apb)
    and x shifted to the peak, so the comparison runs at O(1) scale.
    """
    alpha, beta, gamma = draw["alpha"], draw["beta"], draw["gamma"]
    apb = alpha + beta
    peak = alpha * gamma / apb
    root = math.sqrt(apb)
    lhs, _ = quad(
        lambda s: abs(peak + s / root) * math.exp(-s * s) / root,
        -40.0, 40.0, points=[-peak * root, 0.0],
        epsabs=1e-15, epsrel=1e-13, limit=200,
    )
    rhs = (
        root * math.exp(-((alpha * gamma) ** 2) / apb)
        + _SQRT_PI * alpha * gamma * erf(alpha * gamma / root)
    ) / apb**1.5
    return lhs, rhs


def _lemma_quadratic_gaussian(draw):
    """Gaussian moment of the quadratic 2x^2 - 1."""
    alpha, beta, gamma = draw["alpha"], draw["beta"], draw["gamma"]
    lhs, _ = quad(
        lambda x: (2.0 * x * x - 1.0)
        * math.exp(-(alpha / beta) * (x - gamma * math.sqrt(beta)) ** 2),
        -math.inf, math.inf, epsabs=1e-14, epsrel=1e-12,
    )
    rhs = _SQRT_PI * math.sqrt(beta / alpha) * (beta / alpha + 2.0 * beta * gamma**2 - 1.0)
    return lhs, rhs


def _lemma_four_term(draw):
    """The four-term exponential integral appearing in the wedge reduction."""
    alpha, beta, gamma = draw["alpha"], draw["beta"], draw["gamma"]
    ra = alpha / beta
    gs = gamma * math.sqrt(beta)

    def f(x: float) -> float:
        # The middle term's growing exponential is absorbed into the Gaussian:
        # -ra (x+gs)^2 + 4 ra gs x = -ra (x-gs)^2 exactly, avoiding overflow.
        return (gs - x) * math.exp(-ra * (x + gs) ** 2 - x * x) - (
            x + gs
        ) * math.exp(-ra * (x - gs) ** 2 - x * x)

    # Second term peaks near x = ra*gs/(1+ra); split there and cap the range.
    hi = abs(gs) + 40.0 / math.sqrt(1.0 + min(ra, 1.0))
    lhs, _ = quad(
        f, 0.0, hi, points=[abs(gs), ra * abs(gs) / (1.0 + ra)],
        epsabs=1e-15, epsrel=1e-13, limit=200,
    )
    apb = alpha + beta
    rhs = -beta * math.exp(-alpha * gamma * gamma) / apb**1.5 * (
        math.sqrt(apb)
        + _SQRT_PI * gamma * (2.0 * alpha + beta) * math.exp(alpha**2 * gamma**2 / apb)
        * erf(alpha * gamma / math.sqrt(apb))
    )
    return lhs, rhs


def _lemma_erf_pair(draw):
    """The paired-erf Gaussian integral that produces the Owen's-T term.

    The erf pair is even in the shift, so it is rewritten as a difference
    of erfc values at positive arguments: at large shifts the two erf
    terms cancel to below 1e-16 absolute while the true value can be
    ~1e-18, and only the erfc form keeps relative precision there.
    """
    alpha, beta, gamma = draw["alpha"], draw["beta"], draw["gamma"]
    ra = math.sqrt(alpha / beta)
    ra2 = ra * ra
    gs = abs(gamma) * math.sqrt(beta)
    h2_half = alpha * beta * gamma * gamma / (alpha + beta)
    x_peak = gs * ra2 / (1.0 + ra2)

    def g(x: float) -> float:
        # Both erfcx exponents are completed squares around the saddle, so
        # every factor stays O(1) even when the raw integral is ~1e-18.
        if x <= gs:
            return math.exp(-(1.0 + ra2) * (x - x_peak) ** 2) * _erfcx(
                ra * (gs - x)
            ) - math.exp(-(1.0 + ra2) * (x + x_peak) ** 2) * _erfcx(ra * (x + gs))
        return math.exp(h2_half - x * x) * (
            erfc(ra * (gs - x)) - erfc(ra * (x + gs))
        )

    lhs, _ = quad(
        g, 0.0, gs + 40.0, points=[x_peak, gs],
        epsabs=1e-15, epsrel=1e-13, limit=200,
    )
    rhs = 4.0 * _SQRT_PI * math.exp(h2_half) * owens_t(
        math.sqrt(2.0 * alpha * beta / (alpha + beta)) * gamma, ra
    )
    return lhs, rhs


def _lemma_full_plane(draw):
    """Signed full-plane integral of (y^2 - x^2) against the shifted Gaussian."""
    alpha, beta, gamma = draw["alpha"], draw["beta"], draw["gamma"]
    span = 9.0 / math.sqrt(min(alpha, beta)) + abs(gamma)
    lhs, _ = dblquad(
        lambda y, x: (y * y - x * x) * math.exp(-alpha * (x - gamma) ** 2 - beta * y * y),
        -span, span, -span, span, epsabs=1e-13, epsrel=1e-11,
    )
    rhs = 0.5 * math.pi * (alpha - beta - 2.0 * alpha * beta * gamma**2) / (alpha * beta) ** 1.5
    return lhs, rhs


def _draw(rng, with_x=False) -> dict:
    d = {
        "alpha": rng.uniform(0.1, 10.0),
        "beta": rng.uniform(0.1, 10.0),
        "gamma": rng.uniform(-3.0, 3.0),
    }
    if with_x:
        d["x"] = rng.uniform(-3.0, 3.0)
    return d


LEMMA_CHECKS = (
    ("wedge inner integral", _lemma_inner, True),
    ("abs-x Gaussian integral", _lemma_abs_gaussian, False),
    ("quadratic Gaussian moment", _lemma_quadratic_gaussian, False),
    ("four-term exponential integral", _lemma_four_term, False),
    ("paired-erf Owen's-T integral", _lemma_erf_pair, False),
    ("full-plane signed integral", _lemma_full_plane, False),
)


def lemma_residuals(seed: int = 0, draws: int = 50) -> dict:
    """Worst relative residual per identity over random parameter draws."""
    results = {}
    for name, fn, with_x in LEMMA_CHECKS:
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(draws):
            lhs, rhs = fn(_draw(rng, with_x))
            scale = max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
        results[name] = worst
    return results
