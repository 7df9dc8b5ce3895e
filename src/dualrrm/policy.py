"""Dual-conditioned message-passing policy with hand-derived gradients.

Two edge-weighted message-passing layers followed by a node-wise affine
projection and a sigmoid power head.  With E the signed edge-weight matrix
(E[u, v] on edge u -> v, self-edges included) and s[v] = sum_u E[u, v], a
message-passing layer maps node features Y to

    Y' = relu(Y @ W1 + s * (Y @ W2) - (E^T @ Y) @ W3 + b),

the output layer computes y = Y @ W_out + b_out, and the transmit powers are
p_max * sigmoid(y).  All parameter shapes are independent of the number of
users, so one checkpoint runs on any network size.

Gradients of the episode objective are accumulated by explicit layer-local
backward rules rather than an autodiff engine; they are exact and are
checked against central finite differences in the test suite.
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .artifacts import atomic_open, is_int, load_json, number_array
from .core import (
    RrmProblemConfig,
    block_steps,
    checked_duals,
    lagrangian,
    lagrangian_rate_weights,
    rates_and_gradient,
)
from .core import interference_denominators  # bench/tracing.py wraps this name here
from .errors import (
    CheckpointDimMismatch,
    ConfigError,
    DimensionMismatch,
    NonFiniteActivation,
)
from .graph import GainEpisode, RrmGraph, block_graph, checked_gain_episode
from .seeding import generator

CHECKPOINT_FORMAT_VERSION = 1


@dataclass(frozen=True)
class GnnConfig:
    """Hidden widths of the two message-passing layers; in/out are 1."""

    f1: int = 64
    f2: int = 64
    use_bias: bool = True

    @property
    def feature_dims(self) -> tuple[int, int, int, int]:
        return (1, self.f1, self.f2, 1)

    def validate(self) -> None:
        if self.f1 < 1 or self.f2 < 1:
            raise ConfigError("hidden widths must be >= 1")


def _array_shapes(dims: GnnConfig) -> list[tuple[str, tuple[int, ...]]]:
    """(name, shape) of every trainable array, in checkpoint order."""
    f = dims.feature_dims
    shapes = []
    for l in (1, 2):
        w = (f[l - 1], f[l])
        shapes += [(f"layer{l}.w1", w), (f"layer{l}.w2", w), (f"layer{l}.w3", w),
                   (f"layer{l}.b", w[1:])]
    return shapes + [("out.w", (f[2], f[3])), ("out.b", (1,))]


class GnnParams:
    """All trainable weights as one float64 vector ``flat``, read and written
    through named views into it; also the container for gradients, where
    ``flat`` may stack one vector per episode along leading axes.

    ``w1``, ``w2``, ``w3`` and ``b`` hold one view per layer, with weights of
    shape (..., f_in, f_out) and biases of shape (..., f_out); ``w_out`` is
    (..., f2, 1) and ``b_out`` is (..., 1).
    """

    def __init__(self, flat: np.ndarray, dims: GnnConfig):
        shapes = _array_shapes(dims)
        bounds = np.cumsum([0] + [math.prod(shape) for _, shape in shapes])
        if flat.shape[-1:] != (bounds[-1],):
            raise DimensionMismatch(f"{flat.shape} parameters, dims {dims} need {bounds[-1]}")
        self.flat, self.dims = flat, dims
        self._named = [
            (name, flat[..., start:stop].reshape(flat.shape[:-1] + shape))
            for (name, shape), start, stop in zip(shapes, bounds, bounds[1:])
        ]
        views = [a for _, a in self._named]
        self.w1, self.w2, self.w3, self.b = (views[i:8:4] for i in range(4))
        self.w_out, self.b_out = views[8:]

    def __reduce__(self):  # the evaluation pool pickles the vector only; the views are rebuilt
        return GnnParams, (self.flat, self.dims)

    @property
    def feature_dims(self) -> tuple[int, int, int, int]:
        return self.dims.feature_dims

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Stable (name, view) ordering used by checkpoints and gradchecks."""
        return list(self._named)

    def copy(self) -> "GnnParams":
        return GnnParams(self.flat.copy(), self.dims)

    def zeros_like(self) -> "GnnParams":
        return GnnParams(np.zeros_like(self.flat), self.dims)

    def add_scaled(self, other: "GnnParams", scale: float) -> None:
        """In-place self += scale * other (dims-checked)."""
        if other.feature_dims != self.feature_dims:
            raise DimensionMismatch(f"dims {self.feature_dims} vs {other.feature_dims}")
        self.flat += scale * other.flat

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def init_params(dims: GnnConfig, seed: int) -> GnnParams:
    """Uniform(-s, s) weights with s = sqrt(6 / (fan_in + fan_out)); zero biases."""
    dims.validate()
    rng = generator(seed)
    params = GnnParams(np.zeros(sum(math.prod(s) for _, s in _array_shapes(dims))), dims)
    for _, a in params.named_arrays():
        if a.ndim == 2:  # weights (fan_in, fan_out), drawn in checkpoint order
            s = np.sqrt(6.0 / sum(a.shape))
            a[...] = rng.uniform(-s, s, size=a.shape)
    return params


def _sigmoid(x: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(x))  # never overflows
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _relu_select(mask: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.where(mask, x, 0.0)`` for float64 ``x`` of the shape of ``mask``,
    bit for bit (NaN, infinities and -0.0 included), written into ``x``,
    which is returned: the bits of x times 1 where the mask holds and times 0
    elsewhere.  This is several times faster than ``np.where`` or a masked
    ``np.copyto``, which branch on every entry."""
    bits = x.view(np.uint64)
    np.multiply(bits, mask, out=bits)
    return x


class _Workspace(threading.local):
    """Grow-only float64 storage, one flat array per role and thread, for the
    per-block scratch listed below; no result is a view into it.  A warm pass
    allocates none of them: ``take`` hands out a C-contiguous view of the
    role's array, which is replaced only by a larger one.  At m=6, T=50,
    f=64 each activation is 150 KiB, just above glibc's mmap threshold, so a
    fresh array per temporary cost page faults on every call.
    """

    def __init__(self, n_roles: int):
        self._flat = [np.empty(0) for _ in range(n_roles)]

    def take(self, role: int, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        if self._flat[role].size < size:
            self._flat[role] = np.empty(size)
        return self._flat[role][:size].reshape(shape)


# Roles: activations (reused by the backward pass once dead), stacked gains, time-block rows
_H1, _AGG1, _H2, _SCRATCH, _GAINS, _ROW = range(6)
_WORK = _Workspace(6)


@dataclass
class _ForwardCache:
    y0: np.ndarray  # node features, (..., m, 1)
    agg0: np.ndarray  # E^T @ y0
    h1: np.ndarray  # layer-1 output, (..., m, f1)
    agg1: np.ndarray  # E^T @ h1
    h2: np.ndarray  # layer-2 output, the input to the output projection
    masks: tuple[np.ndarray, np.ndarray]  # per layer: relu mask


def _forward_tensors(
    y0: np.ndarray, edges: np.ndarray, in_sums: np.ndarray, params: GnnParams
) -> tuple[np.ndarray, _ForwardCache]:
    """Batched forward; leading axes of y0/edges/in_sums broadcast together.

    y0: (..., m, 1), edges: (..., m, m), in_sums: (..., m), the in-sums of
    edges.  A y0 of shape (m, 1), (R, m, 1) for R realizations, or
    (k, 1, m, 1) for k episodes, computes the layer-1 products y0 * W once
    for every step.  Returns the pre-sigmoid node scalars with shape
    (..., m), and the activations the backward pass reads, which live in
    ``_WORK``.
    """
    w1, w2, w3, b = params.w1, params.w2, params.w3, params.b
    s = in_sums[..., None]
    edges_t = np.swapaxes(edges, -1, -2)
    # Each layer is y@W1 + s*(y@W2) - agg@W3 + b, summed in place term by
    # term; a sum or product taken the other way round has the same bits, so
    # every bit is that of the plain expression.
    # Layer 1: f0 = 1, so each product is an outer product, exactly y0 * W[0].
    agg0 = edges_t @ y0
    shape = agg0.shape[:-1]
    h1 = np.multiply(s, y0 * w2[0][0], out=_WORK.take(_H1, shape + (params.dims.f1,)))
    h1 += y0 * w1[0][0]
    tmp = _WORK.take(_AGG1, h1.shape)
    h1 -= np.multiply(agg0, w3[0][0], out=tmp)
    if params.dims.use_bias:
        h1 += b[0]
    mask1 = h1 > 0.0
    _relu_select(mask1, h1)
    # Layer 2.
    agg1 = np.matmul(edges_t, h1, out=tmp)
    h2 = np.matmul(h1, w1[1], out=_WORK.take(_H2, shape + (params.dims.f2,)))
    tmp = np.matmul(h1, w2[1], out=_WORK.take(_SCRATCH, h2.shape))
    tmp *= s
    h2 += tmp
    h2 -= np.matmul(agg1, w3[1], out=tmp)
    if params.dims.use_bias:
        h2 += b[1]
    mask2 = h2 > 0.0
    _relu_select(mask2, h2)
    pre = (h2 @ params.w_out)[..., 0] + params.b_out[0]
    if not np.isfinite(pre).all():
        raise NonFiniteActivation("policy produced non-finite pre-activations")
    return pre, _ForwardCache(y0, agg0, h1, agg1, h2, (mask1, mask2))


def _backward_tensors(
    d_pre: np.ndarray,
    cache: _ForwardCache,
    edges: np.ndarray,
    in_sums: np.ndarray,
    params: GnnParams,
    out: np.ndarray,
) -> None:
    """Gradients of sum(d_pre * pre_activation) in all parameters, one row
    of ``out`` (k, P) per episode, for inputs with leading (k, n) axes: k
    episodes of n steps.  The activations in ``cache`` are overwritten."""
    grads = GnnParams(out, params.dims)

    def _contract(out: np.ndarray, a: np.ndarray, g: np.ndarray, sign: float = 1.0) -> None:
        # into ``out``, per episode: sign times the sum over step and node
        # axes of a[..., :, None] * g[..., None, :]
        a = a.reshape(len(out), -1, a.shape[-1])
        np.matmul(np.swapaxes(a, -1, -2), g.reshape(len(out), -1, g.shape[-1]), out=out)
        if sign < 0:
            np.negative(out, out=out)

    s = in_sums[..., None]
    g3 = d_pre[..., None]  # (k, n, m, 1)
    _contract(grads.w_out, cache.h2, g3)
    grads.b_out[...] = g3.sum(axis=(1, 2))
    # Layer 2.  g3 @ w_out.T has one term per entry: it is g3 * w_out[:, 0].
    gz = np.multiply(g3, params.w_out[:, 0], out=_WORK.take(_SCRATCH, cache.h2.shape))
    _relu_select(cache.masks[1], gz)
    h1, tmp = cache.h1, cache.agg1
    _contract(grads.w1[1], h1, gz)
    _contract(grads.w2[1], np.multiply(s, h1, out=h1), gz)
    _contract(grads.w3[1], tmp, gz, -1.0)
    grads.b[1][...] = gz.sum(axis=(1, 2)) if params.dims.use_bias else 0.0
    # The gradient in the layer-1 output,
    # gz @ W1.T + s * (gz @ W2.T) - edges @ (gz @ W3.T), in h1's buffer; the
    # transposes stay views, as copies would change the GEMM path and bits.
    gy = np.matmul(gz, params.w1[1].T, out=h1)
    np.matmul(gz, params.w2[1].T, out=tmp)
    tmp *= s
    gy += tmp
    np.matmul(gz, params.w3[1].T, out=tmp)
    gy -= np.matmul(edges, tmp, out=_WORK.take(_H2, gy.shape))
    # Layer 1; nothing reads the gradient in the network input.
    gz = _relu_select(cache.masks[0], gy)
    y_in = np.broadcast_to(cache.y0, gz.shape[:-1] + (1,))
    _contract(grads.w1[0], y_in, gz)
    _contract(grads.w2[0], s * y_in, gz)
    _contract(grads.w3[0], cache.agg0, gz, -1.0)
    grads.b[0][...] = gz.sum(axis=(1, 2)) if params.dims.use_bias else 0.0


def forward(graph: RrmGraph, mu: np.ndarray, params: GnnParams, p_max: float) -> np.ndarray:
    """Transmit powers p_max * sigmoid(pre-activation), (..., m), for every
    step of a graph under the duals ``mu``, the node features, whose shape
    is that of the graph's trailing in-sum axes: (m,) for one dual vector
    shared by every step, or (R, m) for a graph of (n, R, m, m) steps of R
    realizations, each under its own duals."""
    mu = checked_duals(mu)
    if mu.ndim == 0 or graph.in_sums.shape[-mu.ndim:] != mu.shape:
        raise DimensionMismatch(f"duals {mu.shape} inconsistent with graph {graph.edges.shape}")
    pre, _ = _forward_tensors(mu[..., None], graph.edges, graph.in_sums, params)
    return p_max * _sigmoid(pre)


def episode_tensors(gain: np.ndarray, cfg: RrmProblemConfig) -> GainEpisode:
    """A gain episode |h|^2 (T, m, m), T >= 1, with the edge norm of every
    step, reused across every evaluation of the episode."""
    return GainEpisode(checked_gain_episode(gain, 1, cfg.m), cfg)


def gradient_blocks(m: int, n_steps: int, dims: GnnConfig) -> tuple[int, int]:
    """Episodes and steps per gradient block: the ``core.block_steps`` budget
    of n steps of (n, m, f) activations holds whole episodes, else n steps."""
    n = block_steps(8 * m * max(dims.f1, dims.f2))
    return max(1, n // n_steps), min(n, n_steps)


def episode_eval(
    episode: GainEpisode | list[GainEpisode],
    mu: np.ndarray,
    params: GnnParams,
    cfg: RrmProblemConfig,
    node_features: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> tuple[float | np.ndarray, GnnParams, np.ndarray]:
    """Episode Lagrangian, its parameter gradient, and the average rates.

    ``node_features`` defaults to the duals; passing a constant vector turns
    the network into a channel-only policy, with the duals entering solely
    through the objective weights.

    A batch, a list of B episodes of one length with duals (B, m), gives
    each result a leading batch axis; ``out``, if given, takes the (B, P)
    gradient rows (C-contiguous float64; (1, P) for one episode).  Blocks
    (``gradient_blocks``; ``graph.block_graph`` builds each) hold whole
    episodes, as many as fit, or else time blocks of one, whose gradients
    add in block order.  Every episode's rates fill its own (T, m) array and
    its gradient is contracted on its own, so a batch equals its episodes
    one by one, bit for bit, and no value or average rate depends on blocks.
    """
    single = isinstance(episode, GainEpisode)
    episodes, mu = ([episode], [mu]) if single else (episode, mu)
    mu = np.asarray(mu, dtype=float)
    shapes = {e.gain.shape for e in episodes}
    if len(shapes) != 1 or mu.shape != (len(episodes), cfg.m):
        raise DimensionMismatch(f"duals {mu.shape} at m={cfg.m} and episodes {shapes} are no batch")
    n_steps = episodes[0].gain.shape[0]
    weights = (lagrangian_rate_weights(mu, cfg) / n_steps)[:, None]
    feats = mu if node_features is None else np.asarray(node_features, dtype=float)
    y0 = np.broadcast_to(feats, mu.shape)[:, None, :, None]
    f = np.empty((len(episodes), n_steps, cfg.m))
    shape = (len(episodes), params.flat.size)
    rows = np.empty(shape) if out is None else out
    if rows.shape != shape or rows.dtype != np.float64 or not rows.flags.c_contiguous:
        raise DimensionMismatch(f"gradient rows need a C-contiguous float64 {shape} array")
    per_block, n_block = gradient_blocks(cfg.m, n_steps, params.dims)
    for b0 in range(0, len(episodes), per_block):
        eps = slice(b0, b0 + per_block)
        for t0 in range(0, n_steps, n_block):
            win = slice(t0, t0 + n_block)
            gains = _WORK.take(_GAINS, f[eps, win].shape + (cfg.m,))
            block = block_graph(episodes[eps], win, cfg, gains)
            pre, cache = _forward_tensors(y0[eps], block.edges, block.in_sums, params)
            sig = _sigmoid(pre)
            f[eps, win], dldp = rates_and_gradient(block.gain, cfg.p_max * sig, weights[eps], cfg)
            d_pre = dldp * cfg.p_max * sig * (1.0 - sig)
            grads = _WORK.take(_ROW, rows[eps].shape) if t0 else rows[eps]
            _backward_tensors(d_pre, cache, block.edges, block.in_sums, params, grads)
            if t0:
                rows[eps] += grads
    avg_f = f.mean(axis=1)
    values = np.array([lagrangian(a, u, cfg) for a, u in zip(avg_f, mu)])
    if single:
        return float(values[0]), GnnParams(rows[0], params.dims), avg_f[0]
    return values, GnnParams(rows, params.dims), avg_f


def apply_update(params: GnnParams, grad: GnnParams, eta_phi: float) -> GnnParams:
    """Plain gradient-ascent step: params + eta_phi * grad."""
    out = params.copy()
    out.add_scaled(grad, eta_phi)
    return out


# ---------------------------------------------------------------------------
# Checkpoints: self-describing JSON, byte-identical across load/save cycles.
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: GnnParams
    seed: int
    iteration: int
    config_echo: dict = field(default_factory=dict)


def _dims_block(gnn: GnnConfig) -> dict:
    dims = gnn.feature_dims
    return {
        "f0": dims[0],
        "f1": dims[1],
        "f2": dims[2],
        "f3": dims[3],
        "use_bias": gnn.use_bias,
    }


def _checkpoint_dict(ckpt: Checkpoint) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "tool_version": __version__,
        "seed": ckpt.seed,
        "iteration": ckpt.iteration,
        "dims": _dims_block(ckpt.params.dims),
        "arrays": {
            name: {"shape": list(a.shape), "data": a.ravel().tolist()}
            for name, a in ckpt.params.named_arrays()
        },
        "config_echo": ckpt.config_echo,
    }


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    return json.dumps(_checkpoint_dict(ckpt), sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    with atomic_open(path, "wb") as f:
        f.write(checkpoint_bytes(ckpt))


def _checkpoint_from_dict(d: dict) -> Checkpoint:
    if d.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format {d.get('format_version')}")
    records, dims, config_echo = d.get("arrays"), d.get("dims"), d.get("config_echo", {})
    if not all(isinstance(x, dict) for x in (records, dims, config_echo)):
        raise ConfigError("needs arrays, dims and config_echo objects")
    if not (is_int(d.get("seed")) and is_int(d.get("iteration")) and d["iteration"] >= 0):
        raise ConfigError("seed and iteration must be integers, the iteration at least 0")
    f1, f2, use_bias = dims.get("f1"), dims.get("f2"), dims.get("use_bias")
    if not (is_int(f1) and is_int(f2) and min(f1, f2) >= 1 and isinstance(use_bias, bool)):
        raise ConfigError("dims needs integer widths f1, f2 >= 1 and a boolean use_bias")
    gnn = GnnConfig(f1, f2, use_bias)
    shapes = dict(_array_shapes(gnn))  # the arrays training builds for these dims
    if dims != _dims_block(gnn) or records.keys() != shapes.keys():
        raise ConfigError(f"dims block {dims} needs the arrays {sorted(shapes)}, "
                          f"not {sorted(records)}")
    # each record is checked before a parameter vector of the size dims claims exists
    data = []
    for name, shape in shapes.items():
        if not isinstance(records[name], dict) or records[name].get("shape") != list(shape):
            raise ConfigError(f"array {name} needs the shape {list(shape)}")
        data.append(number_array(name, records[name].get("data"), (math.prod(shape),)))
    params = GnnParams(np.concatenate(data), gnn)
    return Checkpoint(params, d["seed"], d["iteration"], config_echo)


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint with ``artifacts.load_json``; malformed content raises ConfigError."""
    return load_json(path, "checkpoint", _checkpoint_from_dict)


def require_dims(params: GnnParams, dims: GnnConfig) -> None:
    """Raise unless the checkpointed layer sizes match the configured ones."""
    if params.feature_dims != dims.feature_dims:
        raise CheckpointDimMismatch(
            f"checkpoint dims {params.feature_dims} vs configured {dims.feature_dims}"
        )
