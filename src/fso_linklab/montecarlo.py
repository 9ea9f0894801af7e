"""Sampling oracle for the blockage fading model.

Generates irradiance draws straight from the generative story (blockage
coin, discrete sub-channel order, two gamma factors) rather than from any
of the analytic formulas, so empirical histograms, distribution functions
and outage rates can confront the closed forms as an independent check.

Streams are counter-based and chunk-indexed: chunk j is generated from a
Philox generator jumped j times off the config seed, so results are
bit-for-bit reproducible for a given (seed, samples, chunk_size) and do
not depend on how chunks are scheduled across workers. collect_samples and
summarize draw the chunks on lanes, one per worker thread up to
FSO_LINKLAB_THREADS: lane w of W takes chunks w, w + W, ... and writes them
into its slices of one preallocated stream or reduces each on the spot,
and per-chunk partials combine in chunk order; summarize_values reduces a
collected stream on the same lanes, slice by chunk slice.
sample_irradiance is the serial definition of the same stream. A lane's
sampler scratch is one chunk's order row and two 2**16-draw rows, ~9 MB.

gof_ks finds the KS statistic of a large positive sample without sorting
it: cell counts over the sample range and bounds from a monotone
interpolant of the law leave only the few cells that can hold the maximum
deviation, and only their values are sorted. On that path (from 200,000
samples) it holds no sorted copy of the sample, and the statistic equals
the sorted computation bit for bit.

No scipy module is imported at load time: the interpolant is numpy, and
the chi-square and asymptotic Kolmogorov tails come from special_math.
gof_ks imports scipy.stats for the exact small-sample tail, the one place
it is needed.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from ._threads import max_workers as _max_workers
from .errors import DomainError
from .malaga import BlockageConfig, MixtureExpansion, malaga_blockage_cdf
from .outage import SnrPoint
from .special_math import AccuracyBudget, _chi2_sf, _kolmogorov_sf

_WILSON_Z = 1.959963984540054  # two-sided 95%
_BLOCK = 1 << 16  # values per block in sample_chunk and the KS interpolant


@dataclass(frozen=True)
class McConfig:
    """Sampling run description; equal configs give bit-identical streams."""

    samples: int
    seed: int
    histogram_bins: int = 64
    histogram_range: tuple[float, float] = (0.0, 8.0)
    chunk_size: int = 1 << 20

    def __post_init__(self) -> None:
        for name in ("samples", "seed", "histogram_bins", "chunk_size"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 1 << 128:
            # the Philox key is 128 bits
            raise DomainError(f"seed must be in [0, 2**128), got {self.seed}")
        if self.histogram_bins < 1:
            raise DomainError(f"histogram_bins must be >= 1, got {self.histogram_bins}")
        lo, hi = self.histogram_range
        if not (0.0 <= lo < hi < math.inf):
            raise DomainError(f"histogram_range must satisfy 0 <= lo < hi < inf, got {self.histogram_range}")
        if self.chunk_size < 1:
            raise DomainError(f"chunk_size must be >= 1, got {self.chunk_size}")


def chunk_plan(cfg: McConfig) -> list[tuple[int, int]]:
    """(chunk_index, count) pairs covering cfg.samples; the stream contract."""
    plan = []
    remaining = cfg.samples
    index = 0
    while remaining > 0:
        take = min(cfg.chunk_size, remaining)
        plan.append((index, take))
        remaining -= take
        index += 1
    return plan


def chunk_rng(cfg: McConfig, chunk_index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=cfg.seed).jumped(chunk_index))


def _chunk_scratch(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Scratch for sample_chunk on up to n draws: an order row and two block rows."""
    return np.empty(n), np.empty((2, min(n, _BLOCK)))


def sample_chunk(
    rng: np.random.Generator,
    n: int,
    expansion: MixtureExpansion,
    blockage: BlockageConfig,
    *,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """One vectorized batch of irradiance draws.

    The sub-channel order is drawn for every sample from the exact discrete
    law (binomial for natural beta, negative-binomial otherwise; never the
    truncated weight table), then blocked samples are overridden to the
    order-1 scatter-only branch. Drawing unconditionally keeps the random
    stream layout independent of the blockage outcomes.

    Four phases each draw for all n samples in turn: blockage uniforms,
    orders, standard_gamma(alpha) into out, standard_gamma(order). The
    orders and the last gammas run in blocks of 2**16, which consume the
    generator exactly as one call over the chunk does; in between, the
    order row (0 for a blocked draw) is the only per-draw state.

    The draws land in the first n values of out, and that view is returned;
    scratch, from _chunk_scratch with room for n draws, holds the order row
    and the block rows. Either is allocated when not given; the values do
    not depend on where they live.
    """
    out = np.empty(n) if out is None else out[:n]
    order, rows = _chunk_scratch(n) if scratch is None else scratch
    order = order[:n]
    blocks = [slice(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK)]
    rng.random(out=order)  # the blockage uniforms, read back by the order phase
    p = expansion.p
    if expansion.natural:
        b = int(round(expansion.beta))
        scale = expansion.xi_g + expansion.omega_prime / b
        draw = partial(rng.binomial, b - 1, p)
    else:
        # numpy's negative_binomial counts failures at success prob 1-p,
        # which is exactly the order-minus-one law here
        scale = expansion.xi_g
        draw = partial(rng.negative_binomial, expansion.beta, 1.0 - p)
    for block in blocks:
        k = order[block]
        blocked = k < blockage.p_b
        np.add(draw(size=len(k)), 1.0, out=k)
        np.copyto(k, 0.0, where=blocked)
    # gamma(k, theta) draws theta * standard_gamma(k), so these are the same
    # draws and products as rng.gamma with a scale
    rng.standard_gamma(expansion.alpha, out=out)
    for block in blocks:
        k = order[block]
        means, draws = rows[:, :len(k)]
        blocked = k == 0.0
        # a blocked draw takes the order-1 scatter-only branch
        np.copyto(k, 1.0, where=blocked)
        np.multiply(k, scale, out=means)
        np.copyto(means, expansion.xi_g, where=blocked)
        means /= k
        rng.standard_gamma(k, out=draws)
        draws *= means
        large = out[block]
        large *= 1.0 / expansion.alpha
        large *= draws
    return out


def sample_irradiance(
    expansion: MixtureExpansion, blockage: BlockageConfig, cfg: McConfig
):
    """Yield irradiance chunks; constant memory in the total sample count."""
    for index, count in chunk_plan(cfg):
        yield sample_chunk(chunk_rng(cfg, index), count, expansion, blockage)


def _on_lanes(plan, work, lane_buffers=lambda: None):
    """work(index, count, buffers) for every chunk of the plan, in chunk order.

    Lane w of W = min(workers, chunks) takes chunks w, w + W, ...; lane 0
    runs on the calling thread and the others on a pool. Each lane's
    buffers come from lane_buffers(), called here before dispatch.
    """
    lanes = min(_max_workers(), len(plan))
    buffers = [lane_buffers() for _ in range(lanes)]

    def lane(w):
        return [work(index, count, buffers[w]) for index, count in plan[w::lanes]]

    if lanes == 1:
        return lane(0)
    with ThreadPoolExecutor(max_workers=lanes - 1) as pool:
        futures = [pool.submit(lane, w) for w in range(1, lanes)]
        per_lane = [lane(0)] + [f.result() for f in futures]
    ordered = [None] * len(plan)
    for w, results in enumerate(per_lane):
        ordered[w::lanes] = results
    return ordered


def _draw_on_lanes(expansion, blockage, cfg, reduce, stream=None):
    """reduce(chunk) for every chunk of the plan, in chunk order.

    Chunk j lands in its slice of stream when one is given, else in its
    lane's chunk buffer.
    """
    plan = chunk_plan(cfg)
    size = plan[0][1]

    def lane_buffers():
        return _chunk_scratch(size), (np.empty(size) if stream is None else None)

    def draw(index, count, buffers):
        scratch, buffer = buffers
        start = index * cfg.chunk_size
        out = buffer if stream is None else stream[start:start + count]
        return reduce(sample_chunk(chunk_rng(cfg, index), count, expansion, blockage,
                                   out=out, scratch=scratch))

    return _on_lanes(plan, draw, lane_buffers)


@dataclass
class McOutageEstimate:
    estimate: float
    ci_low: float
    ci_high: float
    samples: int
    hits: int

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.ci_low, self.ci_high)


def _wilson_interval(hits: int, n: int) -> tuple[float, float]:
    if hits == 0:
        # rule of three: nothing observed still bounds the rate
        return (0.0, min(3.0 / n, 1.0))
    z2 = _WILSON_Z * _WILSON_Z
    ph = hits / n
    denom = 1.0 + z2 / n
    center = (ph + z2 / (2.0 * n)) / denom
    half = _WILSON_Z * math.sqrt(ph * (1.0 - ph) / n + z2 / (4.0 * n * n)) / denom
    return (max(center - half, 0.0), min(center + half, 1.0))


def empirical_outage(
    snr: SnrPoint,
    expansion: MixtureExpansion,
    blockage: BlockageConfig,
    cfg: McConfig,
) -> McOutageEstimate:
    """Fraction of samples under the outage threshold, with a Wilson 95% CI."""
    gamma_n = snr.gamma_n
    return summarize(expansion, blockage, cfg, (gamma_n,)).outage[gamma_n]


@dataclass
class McSummary:
    """Streaming histogram and moments of one sampling run."""

    count: int
    mean: float
    variance: float
    bin_edges: np.ndarray
    counts: np.ndarray
    underflow: int
    overflow: int
    outage: dict[float, McOutageEstimate] = field(default_factory=dict)

    @property
    def densities(self) -> np.ndarray:
        widths = np.diff(self.bin_edges)
        return self.counts / (self.count * widths)


def _chunk_reducer(cfg: McConfig, gamma_n_points):
    """Histogram edges and the per-chunk partials of a summary."""
    lo, hi = cfg.histogram_range
    edges = np.linspace(lo, hi, cfg.histogram_bins + 1)
    thresholds = {g: SnrPoint(g).gamma_n ** -0.5 for g in gamma_n_points}

    def reduce(chunk):
        counts, _ = np.histogram(chunk, bins=edges)
        return (counts,
                int(np.count_nonzero(chunk < lo)),
                int(np.count_nonzero(chunk >= hi)),
                float(np.sum(chunk)),
                float(np.sum(chunk * chunk)),
                {g: int(np.count_nonzero(chunk < t)) for g, t in thresholds.items()})

    return edges, reduce


def _combine_partials(partials, n, edges, gamma_n_points) -> McSummary:
    # chunk order, so the float sums round exactly as a serial pass does
    counts = np.zeros(len(edges) - 1, dtype=np.int64)
    under = 0
    over = 0
    total = 0.0
    total_sq = 0.0
    hits = {g: 0 for g in gamma_n_points}
    for c, u, o, s, s2, h in partials:
        counts += c
        under += u
        over += o
        total += s
        total_sq += s2
        for g in hits:
            hits[g] += h[g]
    mean = total / n
    variance = (total_sq - n * mean * mean) / (n - 1) if n > 1 else 0.0
    outage = {}
    for g in gamma_n_points:
        wl, wh = _wilson_interval(hits[g], n)
        outage[g] = McOutageEstimate(hits[g] / n, wl, wh, n, hits[g])
    return McSummary(
        count=n, mean=mean, variance=variance, bin_edges=edges,
        counts=counts, underflow=under, overflow=over, outage=outage)


def summarize(
    expansion: MixtureExpansion,
    blockage: BlockageConfig,
    cfg: McConfig,
    gamma_n_points: tuple[float, ...] = (),
) -> McSummary:
    """One streaming pass: histogram, moments, and outage at chosen SNRs.

    Each chunk is reduced on its lane as soon as it is drawn, so memory
    stays constant in the sample count.
    """
    edges, reduce = _chunk_reducer(cfg, gamma_n_points)
    partials = _draw_on_lanes(expansion, blockage, cfg, reduce)
    return _combine_partials(partials, cfg.samples, edges, gamma_n_points)


def summarize_values(
    values: np.ndarray,
    cfg: McConfig,
    gamma_n_points: tuple[float, ...] = (),
) -> McSummary:
    """Summary of an already materialized sample array.

    Histogram geometry and the cfg.chunk_size slices come from cfg; the
    count comes from the array, so cfg.samples need not match. Lets one
    collected stream feed several checks (histogram, outage, rank tests)
    without being regenerated. The slices are reduced on the lanes and
    combined in order, so the summary of collect_samples(ex, bl, cfg) equals
    summarize(ex, bl, cfg) bit for bit.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 1:
        raise DomainError("summarize_values needs a flat, non-empty array")
    n = len(values)
    edges, reduce = _chunk_reducer(cfg, gamma_n_points)

    def reduce_slice(index, count, _):
        start = index * cfg.chunk_size
        return reduce(values[start:start + count])

    partials = _on_lanes(chunk_plan(replace(cfg, samples=n)), reduce_slice)
    return _combine_partials(partials, n, edges, gamma_n_points)


@dataclass
class GofResult:
    statistic: float
    pvalue: float
    dof: int | None = None
    cells: int | None = None

    def passed(self, alpha: float = 0.01) -> bool:
        return self.pvalue > alpha


def gof_chisquare(
    summary: McSummary,
    expansion: MixtureExpansion,
    blockage: BlockageConfig,
    min_expected: float = 5.0,
    budget: AccuracyBudget | None = None,
) -> GofResult:
    """Chi-square comparison of the histogram against the analytic law.

    Expected counts come from distribution-function differences over the
    bin edges plus open cells below/above the histogram range; adjacent
    cells are pooled left to right until each pooled cell expects at least
    min_expected counts. The p-value is the chi-square survival function
    Q(dof / 2, stat / 2), from special_math's incomplete gamma routine.
    """
    n = summary.count
    edges = summary.bin_edges
    cdf_at = np.asarray(malaga_blockage_cdf(edges, expansion, blockage, budget))
    observed = [float(summary.underflow), *summary.counts.astype(float), float(summary.overflow)]
    expected = [n * cdf_at[0], *(n * np.diff(cdf_at)), n * (1.0 - cdf_at[-1])]
    if summary.bin_edges[0] == 0.0:
        # the underflow cell is structurally empty; drop it
        observed = observed[1:]
        expected = expected[1:]

    pooled_obs: list[float] = []
    pooled_exp: list[float] = []
    acc_o = 0.0
    acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
            acc_o = 0.0
            acc_e = 0.0
    if acc_e > 0.0 or acc_o > 0.0:
        if pooled_obs:
            pooled_obs[-1] += acc_o
            pooled_exp[-1] += acc_e
        else:
            pooled_obs.append(acc_o)
            pooled_exp.append(acc_e)
    obs = np.asarray(pooled_obs)
    exp = np.asarray(pooled_exp)
    if len(obs) < 2:
        raise DomainError("chi-square needs at least 2 pooled cells; "
                          "widen the histogram range or lower min_expected")
    # guard the tiny mismatch between sum(exp) and n from CDF rounding
    exp *= obs.sum() / exp.sum()
    stat = float(np.sum((obs - exp) ** 2 / exp))
    dof = len(obs) - 1
    return GofResult(statistic=stat, pvalue=_chi2_sf(dof, stat),
                     dof=dof, cells=len(obs))


_KS_INTERP_MIN_N = 200_000
_KS_INTERP_GRID = 4096
_KS_INTERP_TOL = 1e-7
_KS_CHUNK = 1 << 20  # values per pass and per law evaluation in gof_ks
_KS_CELL_BITS = 18  # at most 2**18 cells in the sort-free statistic
# covers the rounding of log and of the interpolant between a value and its
# cell's edges; far below the probe tolerance
_KS_SLACK = 1e-12


def _monotone_cubic(x, y):
    """Fritsch-Carlson monotone cubic through (x, y).

    x is increasing and evenly spaced up to rounding, and y is
    non-decreasing. Inner slopes are weighted harmonic means of the
    neighbouring secants (0 next to a flat one), end slopes the three-point
    estimate cut at 0, all formed as in scipy's PchipInterpolator (Fritsch
    and Carlson, SIAM J. Numer. Anal. 1980; Moler, Numerical Computing with
    MATLAB, sec. 3.6). The end cubics extrapolate.
    """
    h = np.diff(x)
    m = np.diff(y) / h
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    d = np.empty_like(y)
    with np.errstate(divide="ignore"):
        d[1:-1] = np.where((m[1:] > 0.0) & (m[:-1] > 0.0),
                           1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)), 0.0)
    d[0] = max(0.0, ((2.0 * h[0] + h[1]) * m[0] - h[0] * m[1]) / (h[0] + h[1]))
    d[-1] = max(0.0, ((2.0 * h[-1] + h[-2]) * m[-1] - h[-1] * m[-2]) / (h[-1] + h[-2]))
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    c0, c1, c2, c3 = t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]
    last = len(h) - 1
    per_x = len(h) / (x[-1] - x[0])

    def evaluate(v):
        # c3 + c2·s + c1·s² + c0·s³ in that order, block by block so the
        # temporaries stay small
        out = np.empty(len(v))
        for start in range(0, len(v), _BLOCK):
            u = v[start:start + _BLOCK]
            # the cell from the even spacing, then one step to the i with
            # x[i] <= u < x[i + 1]
            i = np.clip((u - x[0]) * per_x, 0, last).astype(np.intp)
            i -= u < x.take(i)
            i += u >= x.take(i + 1)
            np.clip(i, 0, last, out=i)
            s = u - x.take(i)
            r = c3.take(i, out=out[start:start + _BLOCK], mode="clip")
            r += c2.take(i) * s
            s2 = s * s
            r += c1.take(i) * s2
            s2 *= s
            r += c0.take(i) * s2
        return out

    return evaluate


def _ks_cdf_evaluator(values, lo, hi, expansion, blockage, budget):
    """A probe-verified monotone interpolant of the law on [lo, hi], or None.

    lo and hi are the extremes of values. None means the statistic must be
    computed from the law itself: too few samples, a sample reaching zero,
    a single value, a grid on which the law is not monotone, or an
    interpolant the probe rejects.
    """
    # for very large samples, evaluate the analytic law on a log grid and
    # interpolate monotonically between grid points; the shape-preserving
    # interpolant is probed against direct evaluation and only used when it
    # reproduces the law far below any resolvable KS deviation
    n = len(values)
    if n < _KS_INTERP_MIN_N or lo <= 0.0 or lo == hi:
        return None
    # the grid and probe are always evaluated well under the probe
    # tolerance, whatever budget the caller asked for: a budget only bounds
    # each value's own error, point by point, so at a loose one the probe
    # could read the law's error as interpolation error and force the slow
    # direct path
    tight = AccuracyBudget(rel_tol=min(
        _KS_INTERP_TOL * 1e-2, math.inf if budget is None else budget.rel_tol))

    def exact(chunk):
        return np.asarray(malaga_blockage_cdf(chunk, expansion, blockage, tight))

    grid = np.exp(np.linspace(math.log(lo), math.log(hi), _KS_INTERP_GRID))
    grid[0] = lo
    grid[-1] = hi
    on_grid = exact(grid)
    # monotone grid values make the interpolant monotone, which the cell
    # bounds of _ks_candidates rely on
    if np.any(np.diff(on_grid) < 0.0):
        return None
    interp = _monotone_cubic(np.log(grid), on_grid)
    probe = np.sort(values[:: max(1, n // 509)])
    if np.max(np.abs(interp(np.log(probe)) - exact(probe))) > _KS_INTERP_TOL:
        return None
    return lambda chunk: interp(np.log(chunk))


def _ks_candidates(values, lo, hi, cdf):
    """The values that can hold the KS maximum, sorted, with their ranks.

    Without sorting values: one pass counts them into cells between lo > 0
    and hi, where a cell is a run of 2**s consecutive doubles (positive
    doubles order like their bit patterns, so a value's cell is exact and
    monotone in the value, and the cells are log-uniform within a factor of
    two). The counts give each cell's ranks and, with the monotone cdf at
    the cell edges, bounds on the largest deviation inside it. Only cells
    whose upper bound reaches the largest lower bound can hold the maximum;
    a second pass gathers their values, and a value's rank is its cell's
    start count plus its place in the cell.
    """
    n = len(values)
    base = int(np.float64(lo).view(np.int64))
    top = int(np.float64(hi).view(np.int64))
    shift = max(0, (top - base).bit_length() - _KS_CELL_BITS)
    cells = ((top - base) >> shift) + 1
    chunks = [values[start:start + _KS_CHUNK] for start in range(0, n, _KS_CHUNK)]

    def cell_of(chunk):
        j = chunk.view(np.int64) - base
        j >>= shift
        return j

    counts = sum(np.bincount(cell_of(chunk), minlength=cells) for chunk in chunks)
    before = np.zeros(cells + 1, dtype=np.int64)
    np.cumsum(counts, out=before[1:])
    edge_bits = np.minimum(base + (np.arange(cells + 1, dtype=np.int64) << shift), top)
    f = cdf(edge_bits.view(np.float64))
    below = before[:-1] / n
    through = before[1:] / n
    lower = np.maximum(through - f[1:], f[:-1] - below)
    upper = np.maximum(through - f[:-1], f[1:] - below)
    held = counts > 0
    keep = held & (upper >= np.max(lower[held]) - _KS_SLACK)
    x = np.sort(np.concatenate([chunk[keep[cell_of(chunk)]] for chunk in chunks]))
    # x runs through the kept cells in cell order; shift each cell's
    # positions in x to its ranks in the sample
    kept = counts[keep]
    offset = before[:-1][keep] - (np.cumsum(kept) - kept)
    return x, np.arange(1.0, len(x) + 1.0) + np.repeat(offset, kept)


def _ks_statistic(x, ranks, n, cdf):
    """max(0, ranks/n - F(x), F(x) - (ranks - 1)/n) over sorted x, in chunks.

    ranks holds the 1-based ranks of x in a sample of n values, or is None
    when x is the whole sample (ranks 1..n).
    """
    d = 0.0
    for start in range(0, len(x), _KS_CHUNK):
        stop = min(start + _KS_CHUNK, len(x))
        r = np.arange(start + 1, stop + 1, dtype=float) if ranks is None else ranks[start:stop]
        f = cdf(x[start:stop])
        d = max(d, float(np.max(r / n - f)), float(np.max(f - (r - 1.0) / n)))
    return d


def gof_ks(
    values: np.ndarray,
    expansion: MixtureExpansion,
    blockage: BlockageConfig,
    budget: AccuracyBudget | None = None,
) -> GofResult:
    """One-sample Kolmogorov-Smirnov test against the analytic distribution.

    values must be a flat array of at least 2 finite samples; it is not
    modified. From 200,000 samples, when the sample is positive and a
    probe-verified monotone interpolant of the law stands in for direct
    evaluation, the statistic is found without sorting the sample: counts
    of the values in fine cells of the sample range and bounds from the
    interpolant at the cell edges rule out every cell that cannot hold the
    maximum deviation, and only the values of the remaining cells are
    gathered and sorted. No sorted copy of the sample is held, and the
    statistic equals the sorted computation with the same interpolant bit
    for bit. Otherwise the sample is sorted and the law evaluated chunk by
    chunk. The p-value is the exact tail probability up to 50000 samples
    (scipy.stats.kstwo, imported on that path only) and the asymptotic
    Kolmogorov law beyond (special_math._kolmogorov_sf, the values of
    scipy.stats.kstwobign.sf to within 1e-13).
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or len(values) < 2:
        raise DomainError("gof_ks needs a flat array of at least 2 samples")
    n = len(values)
    # min and max propagate NaN, so they also check every value is finite
    lo = float(np.min(values))
    hi = float(np.max(values))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError("gof_ks needs finite samples")
    cdf = _ks_cdf_evaluator(values, lo, hi, expansion, blockage, budget)
    if cdf is None:
        d = _ks_statistic(np.sort(values), None, n, lambda chunk: np.asarray(
            malaga_blockage_cdf(chunk, expansion, blockage, budget)))
    else:
        d = _ks_statistic(*_ks_candidates(values, lo, hi, cdf), n, cdf)
    if n <= 50_000:
        # the exact finite-n law lives only in scipy.stats, whose import
        # costs more than the rest of the package together
        from scipy.stats import kstwo

        pvalue = float(kstwo.sf(d, n))
    else:
        pvalue = _kolmogorov_sf(d * math.sqrt(n))
    return GofResult(statistic=d, pvalue=pvalue)


def collect_samples(
    expansion: MixtureExpansion, blockage: BlockageConfig, cfg: McConfig
) -> np.ndarray:
    """Materialize the whole stream (for tests and KS runs that need it).

    Equal bit for bit to concatenating sample_irradiance; the lanes draw
    each chunk straight into its slice of one preallocated array.
    """
    stream = np.empty(cfg.samples)
    _draw_on_lanes(expansion, blockage, cfg, lambda chunk: None, stream)
    return stream
