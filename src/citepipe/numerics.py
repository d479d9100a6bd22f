"""Quantile-based weight quantization and the paired optimizer arithmetic.

The quantile map places 2^n bins over [-1, 1] by averaging adjacent
standard-normal quantiles on an evenly spaced probability grid, clamped
away from 0 and 1 where the quantile function diverges. The default
construction uses separate grids for the negative and positive halves so
the bins cover the full normalized range with exact -1, 0, and +1 entries;
a single-grid variant without the per-half normalization is available for
comparison. Quantization is blockwise absmax: each block is scaled by its
largest magnitude and every value maps to the nearest bin.

The optimizer implements momentum with the learning rate folded into the
accumulator, a second-moment average, bias correction for both, and an
update that divides by sqrt(second moment + eps). A conventional variant
with (1 - beta) momentum weighting and eps outside the square root can be
selected for comparison. Everything is plain-float and desk-scale.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Callable, NamedTuple, Sequence

from .jsonl import Frozen, Record

Objective = Callable[[list[float]], tuple[float, list[float]]]

# Rational approximation coefficients for the inverse normal CDF
# (P. J. Acklam's algorithm), accurate to ~1.15e-9 relative before
# refinement. One Halley step against erfc pushes it near machine epsilon.
_ICDF_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_ICDF_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_ICDF_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_ICDF_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_ICDF_P_LOW = 0.02425


def inverse_normal_cdf(p: float) -> float:
    """Quantile function of the standard normal, |relative error| well under 1e-9.

    Defined on the open interval (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")

    a, b, c, d = _ICDF_A, _ICDF_B, _ICDF_C, _ICDF_D
    if p < _ICDF_P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    elif p <= 1.0 - _ICDF_P_LOW:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    else:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )

    # one Halley refinement against the exact CDF
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    u = err * math.sqrt(2.0 * math.pi) * math.exp(x * x / 2.0)
    return x - u / (1.0 + x * u / 2.0)


class QuantileMap(Record):
    """Strictly increasing bin values with an exact zero at index 2^(n-1):
    `n_bits`, `bins` (a list of floats), `normalization` and `symmetric`."""

    __slots__ = ("n_bits", "bins", "normalization", "symmetric")
    _defaults = {"normalization": "absmax", "symmetric": True}

    def _check(self):
        expected = 2 ** self.n_bits
        if len(self.bins) != expected:
            raise ValueError(f"expected {expected} bins, got {len(self.bins)}")
        if any(b2 <= b1 for b1, b2 in zip(self.bins, self.bins[1:])):
            raise ValueError("bins must be strictly increasing")
        middle = self.bins[expected // 2]
        if abs(middle) > 1e-12:
            raise ValueError(f"middle bin must be zero, got {middle!r}")


def _averaged_quantiles(edges: list[float]) -> list[float]:
    qs = [inverse_normal_cdf(p) for p in edges]
    return [0.5 * (qs[i] + qs[i + 1]) for i in range(len(qs) - 1)]


def build_quantile_map(n_bits: int = 4, symmetric: bool = True) -> QuantileMap:
    """Build the 2^n-bin quantile map.

    The grid spacing uses the 2^n + 1 denominator with edge probabilities
    clamped to [delta, 1 - delta], delta = 1 / (2 * (2^n + 1)). The default
    symmetric construction runs one grid from delta to 1/2 for the 2^(n-1)
    negative bins and one from 1/2 to 1 - delta for the 2^(n-1) - 1 positive
    bins, normalizes each half by its extreme bin, and joins them around an
    exact zero, so the bins always span [-1, 1]. With symmetric=False the
    single grid i/(2^n + 1) for i = 0..2^n is used directly and only the
    largest magnitude is rescaled to 1, which leaves the positive tail short
    of +1.
    """
    if not 1 <= n_bits <= 8:
        raise ValueError("n_bits must be between 1 and 8")
    n = 2 ** n_bits
    delta = 1.0 / (2 * (n + 1))

    if not symmetric:
        def clamp(p: float) -> float:
            return min(max(p, delta), 1.0 - delta)

        edges = [clamp(i / (n + 1)) for i in range(n + 1)]
        bins = _averaged_quantiles(edges)
        scale = max(abs(b) for b in bins)
        return QuantileMap(n_bits, [b / scale for b in bins], symmetric=False)

    half = n // 2
    neg_edges = [delta + j * (0.5 - delta) / half for j in range(half + 1)]
    neg = _averaged_quantiles(neg_edges)
    neg_scale = abs(neg[0])
    neg = [b / neg_scale for b in neg]
    neg[0] = -1.0  # exact endpoint, kills the last rounding ulp

    pos: list[float] = []
    n_pos = half - 1
    if n_pos > 0:
        pos_edges = [0.5 + j * (0.5 - delta) / n_pos for j in range(n_pos + 1)]
        pos = _averaged_quantiles(pos_edges)
        pos_scale = pos[-1]
        pos = [b / pos_scale for b in pos]
        pos[-1] = 1.0

    return QuantileMap(n_bits, neg + [0.0] + pos, symmetric=True)


class QuantizedBlock(NamedTuple):
    """Blockwise absmax quantization of one vector against a quantile map."""

    qmap: QuantileMap
    block_size: int
    length: int
    indices: list[int]
    scales: list[float]


def _nearest_bin(bins: list[float], x: float) -> int:
    # ties go to the lower index
    pos = bisect_left(bins, x)
    if pos == 0:
        return 0
    if pos == len(bins):
        return len(bins) - 1
    below = x - bins[pos - 1]
    above = bins[pos] - x
    return pos if above < below else pos - 1


def quantize_block(values: Sequence[float], qmap: QuantileMap, block_size: int = 64) -> QuantizedBlock:
    """Quantize a vector blockwise; scale is each block's max magnitude.

    An all-zero block keeps scale 0 and maps to the zero bin, so it
    round-trips to exact zeros. Non-finite inputs are rejected.
    """
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    values = list(values)
    if any(not math.isfinite(v) for v in values):
        raise ValueError("values must be finite")

    zero_index = len(qmap.bins) // 2
    indices: list[int] = []
    scales: list[float] = []
    for start in range(0, len(values), block_size):
        block = values[start : start + block_size]
        scale = max(abs(v) for v in block)
        scales.append(scale)
        if scale == 0.0:
            indices.extend([zero_index] * len(block))
            continue
        for v in block:
            indices.append(_nearest_bin(qmap.bins, v / scale))
    return QuantizedBlock(qmap, block_size, len(values), indices, scales)


def dequantize_block(qb: QuantizedBlock) -> list[float]:
    bins = qb.qmap.bins
    return [
        bins[qb.indices[i]] * qb.scales[i // qb.block_size]
        for i in range(qb.length)
    ]


class OptimizerState(Record):
    """First/second moment accumulators plus hyperparameters for one vector:
    the lists `w`, `m` and `v` (zeros when left out), the step `t`, `beta`,
    `gamma`, `eta`, `eps`, `weight_decay` and `mode`, "paper" or "standard"."""

    __slots__ = ("w", "m", "v", "t", "beta", "gamma", "eta", "eps", "weight_decay", "mode")
    _defaults = {"m": list, "v": list, "t": 0, "beta": 0.9, "gamma": 0.999, "eta": 3e-4, "eps": 1e-8,
                 "weight_decay": 0.0, "mode": "paper"}

    def _check(self):
        if not self.m:
            self.m = [0.0] * len(self.w)
        if not self.v:
            self.v = [0.0] * len(self.w)
        if self.mode not in ("paper", "standard"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (len(self.w) == len(self.m) == len(self.v)):
            raise ValueError("w, m, v must have equal length")
        if not 0.0 <= self.weight_decay < math.inf:  # NaN fails both comparisons
            raise ValueError(f"weight_decay must be non-negative and finite, not {self.weight_decay!r}")


def optimizer_step(state: OptimizerState, gradient: Sequence[float], lr: float | None = None) -> OptimizerState:
    """Advance the optimizer by one step and return the new state.

    "paper" mode folds the learning rate into the momentum accumulator
    (m <- beta*m + lr*g) and divides the update by sqrt(vhat + eps).
    "standard" mode uses the conventional (1 - beta) momentum weighting and
    puts eps outside the square root. Positive weight_decay shrinks the
    updated weights by lr * weight_decay afterwards (decoupled decay). A
    zero denominator, which only happens when every gradient so far was
    zero, leaves the weight untouched.
    """
    gradient = list(gradient)
    if len(gradient) != len(state.w):
        raise ValueError("gradient length does not match weights")
    if any(not math.isfinite(g) for g in gradient):
        raise ValueError("gradient must be finite")
    if lr is None:
        lr = state.eta

    t = state.t + 1
    beta, gamma, eps = state.beta, state.gamma, state.eps
    bias_m = 1.0 - beta ** t
    bias_v = 1.0 - gamma ** t

    new_w: list[float] = []
    new_m: list[float] = []
    new_v: list[float] = []
    for w_i, m_i, v_i, g_i in zip(state.w, state.m, state.v, gradient):
        if state.mode == "paper":
            m_next = beta * m_i + lr * g_i
        else:
            m_next = beta * m_i + (1.0 - beta) * g_i
        v_next = gamma * v_i + (1.0 - gamma) * g_i * g_i
        m_hat = m_next / bias_m
        v_hat = v_next / bias_v

        if state.mode == "paper":
            denom = math.sqrt(v_hat + eps)
            step = (lr / denom) * m_hat if denom > 0.0 else 0.0
        else:
            denom = math.sqrt(v_hat) + eps
            step = lr * m_hat / denom if denom > 0.0 else 0.0

        w_next = w_i - step
        if state.weight_decay > 0.0:
            w_next -= lr * state.weight_decay * w_next
        new_w.append(w_next)
        new_m.append(m_next)
        new_v.append(v_next)

    return OptimizerState(
        w=new_w, m=new_m, v=new_v, t=t,
        beta=beta, gamma=gamma, eta=state.eta, eps=eps,
        weight_decay=state.weight_decay, mode=state.mode,
    )


class LrSchedule(Frozen):
    """Linear warmup from 0 to base_lr, then linear decay to 0 at total_steps."""

    __slots__ = ("base_lr", "warmup_steps", "total_steps")
    _defaults = {"base_lr": 3e-4, "warmup_steps": 100, "total_steps": 1100}

    def _check(self):
        if self.warmup_steps < 0 or self.total_steps < self.warmup_steps:
            raise ValueError("need 0 <= warmup_steps <= total_steps")


def lr_at(schedule: LrSchedule, step: int) -> float:
    """Learning rate at an integer step in [0, total_steps]."""
    if step < 0 or step > schedule.total_steps:
        raise ValueError(f"step {step} outside [0, {schedule.total_steps}]")
    if schedule.warmup_steps > 0 and step <= schedule.warmup_steps:
        return schedule.base_lr * step / schedule.warmup_steps
    if schedule.total_steps == schedule.warmup_steps:
        return schedule.base_lr
    remaining = schedule.total_steps - step
    return schedule.base_lr * remaining / (schedule.total_steps - schedule.warmup_steps)


class TrajectoryPoint(NamedTuple):
    step: int
    w: list[float]
    value: float


def quadratic(curvatures: Sequence[float]) -> Objective:
    """Objective factory: f(w) = sum(c_i * w_i^2), analytic gradient 2*c_i*w_i."""
    cs = list(curvatures)

    def objective(w: list[float]) -> tuple[float, list[float]]:
        if len(w) != len(cs):
            raise ValueError("dimension mismatch")
        value = sum(c * x * x for c, x in zip(cs, w))
        grad = [2.0 * c * x for c, x in zip(cs, w)]
        return value, grad

    return objective


def minimize(
    objective: Objective,
    x0: Sequence[float],
    steps: int = 500,
    lr: float = 0.1,
    schedule: LrSchedule | None = None,
    mode: str = "paper",
    beta: float = 0.9,
    gamma: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> list[TrajectoryPoint]:
    """Run the optimizer on an objective and record the trajectory.

    With a schedule, step t uses lr_at(schedule, t - 1), so training starts
    at the bottom of the warmup ramp. The returned trajectory has steps + 1
    points; point 0 is the starting iterate.
    """
    if steps < 0:
        raise ValueError(f"steps must not be negative: {steps}")
    state = OptimizerState(
        w=list(x0), beta=beta, gamma=gamma, eta=lr, eps=eps,
        weight_decay=weight_decay, mode=mode,
    )
    value, _ = objective(state.w)
    trajectory = [TrajectoryPoint(0, list(state.w), value)]
    for t in range(1, steps + 1):
        value, grad = objective(state.w)
        step_lr = lr if schedule is None else lr_at(schedule, t - 1)
        state = optimizer_step(state, grad, step_lr)
        value, _ = objective(state.w)
        trajectory.append(TrajectoryPoint(t, list(state.w), value))
    return trajectory
