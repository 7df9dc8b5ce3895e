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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .atomic import atomic_open
from .core import (
    RrmProblemConfig,
    block_steps,
    checked_duals,
    interference_denominators,
    lagrangian,
    lagrangian_rate_weights,
    sorted_sum,
)
from .errors import (
    CheckpointDimMismatch,
    ConfigError,
    DimensionMismatch,
    NonFiniteActivation,
)
from .graph import RrmGraph, build_graph
from .seeding import generator

_LN2 = float(np.log(2.0))

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
    through named views into it; also the container for gradients.

    ``w1``, ``w2``, ``w3`` and ``b`` hold one view per layer, with weights of
    shape (f_in, f_out) and biases of shape (f_out,); ``w_out`` is (f2, 1)
    and ``b_out`` is (1,).
    """

    def __init__(self, flat: np.ndarray, dims: GnnConfig):
        shapes = _array_shapes(dims)
        bounds = np.cumsum([0] + [math.prod(shape) for _, shape in shapes])
        if flat.shape != (bounds[-1],):
            raise DimensionMismatch(f"{flat.shape} parameters, dims {dims} need {bounds[-1]}")
        self.flat, self.dims = flat, dims
        self._named = [
            (name, flat[start:stop].reshape(shape))
            for (name, shape), start, stop in zip(shapes, bounds, bounds[1:])
        ]
        views = [a for _, a in self._named]
        self.w1, self.w2, self.w3, self.b = (views[i:8:4] for i in range(4))
        self.w_out, self.b_out = views[8:]

    def __reduce__(self):  # pickle the vector only; the views are rebuilt
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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass
class _ForwardCache:
    inputs: list[np.ndarray]  # per layer: Y in
    masks: list[np.ndarray]  # per layer: relu mask
    aggregates: list[np.ndarray]  # per layer: E^T @ Y in
    hidden_out: np.ndarray  # input to the output projection


def _forward_tensors(
    y0: np.ndarray, edges: np.ndarray, in_sums: np.ndarray, params: GnnParams
) -> tuple[np.ndarray, _ForwardCache]:
    """Batched forward; leading axes of y0/edges/in_sums broadcast together.

    y0: (..., m, 1), edges: (..., m, m), in_sums: (..., m).  A y0 of shape
    (m, 1) computes the layer-1 products y0 * W once for every step.
    Returns the pre-sigmoid node scalars with shape (..., m).
    """
    y = y0
    inputs, masks, aggs = [], [], []
    s = in_sums[..., None]
    edges_t = np.swapaxes(edges, -1, -2)
    for l in range(len(params.w1)):
        agg = edges_t @ y
        if l == 0:  # f0 = 1: each product is an outer product, exactly y * W[0]
            z = y * params.w1[0][0] + s * (y * params.w2[0][0]) - agg * params.w3[0][0]
        else:
            z = y @ params.w1[l] + s * (y @ params.w2[l]) - agg @ params.w3[l]
        if params.dims.use_bias:
            z = z + params.b[l]
        mask = z > 0.0
        inputs.append(y)
        masks.append(mask)
        aggs.append(agg)
        y = np.where(mask, z, 0.0)
    pre = (y @ params.w_out)[..., 0] + params.b_out[0]
    if not np.isfinite(pre).all():
        raise NonFiniteActivation("policy produced non-finite pre-activations")
    return pre, _ForwardCache(inputs=inputs, masks=masks, aggregates=aggs, hidden_out=y)


def _backward_tensors(
    d_pre: np.ndarray,
    cache: _ForwardCache,
    edges: np.ndarray,
    in_sums: np.ndarray,
    params: GnnParams,
) -> GnnParams:
    """Gradients of sum(d_pre * pre_activation) in all parameters."""
    grads = params.zeros_like()
    batch_axes = tuple(range(d_pre.ndim - 1)) + (d_pre.ndim - 1,)

    def _contract(a: np.ndarray, g: np.ndarray) -> np.ndarray:
        # sum over batch and node axes of a[..., :, None] * g[..., None, :]
        return np.tensordot(a, g, axes=(batch_axes, batch_axes))

    g3 = d_pre[..., None]  # (..., m, 1)
    grads.w_out[...] = _contract(cache.hidden_out, g3)
    grads.b_out[...] = g3.sum()
    gy = g3 @ params.w_out.T
    s = in_sums[..., None]
    for l in reversed(range(len(params.w1))):
        gz = np.where(cache.masks[l], gy, 0.0)
        # layer-1 node features may come without the leading axes of gz
        y_in = np.broadcast_to(cache.inputs[l], gz.shape[:-1] + cache.inputs[l].shape[-1:])
        grads.w1[l][...] = _contract(y_in, gz)
        grads.w2[l][...] = _contract(s * y_in, gz)
        grads.w3[l][...] = -_contract(cache.aggregates[l], gz)
        if params.dims.use_bias:
            grads.b[l][...] = gz.sum(axis=batch_axes)
        if l > 0:  # nothing reads the gradient in the network input
            gy = (
                gz @ params.w1[l].T
                + s * (gz @ params.w2[l].T)
                - edges @ (gz @ params.w3[l].T)
            )
    return grads


def forward(graph: RrmGraph, mu: np.ndarray, params: GnnParams, p_max: float) -> np.ndarray:
    """Transmit powers p_max * sigmoid(pre-activation), (..., m), for every
    step of a graph under one dual vector ``mu`` (m,), the node features."""
    mu = checked_duals(mu)
    if mu.shape != graph.in_sums.shape[-1:]:
        raise DimensionMismatch(f"duals {mu.shape} inconsistent with graph {graph.edges.shape}")
    pre, _ = _forward_tensors(mu[:, None], graph.edges, graph.in_sums, params)
    return p_max * _sigmoid(pre)


def _d_lagrangian_d_powers(
    abs_h2: np.ndarray, p: np.ndarray, weights: np.ndarray, cfg: RrmProblemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Rates and d(sum_i weights_i f_i)/dp, over any leading axes of
    ``abs_h2`` (..., m, m) and ``p`` (..., m); ``weights`` broadcasts."""
    a = abs_h2.diagonal(0, -2, -1)
    signal = p * a
    denom = interference_denominators(abs_h2, p, cfg.noise)
    f = np.log2(1.0 + signal / denom)
    total = denom + signal
    beta = weights / (_LN2 * total)
    gamma = weights * signal / (_LN2 * denom * total)
    # dL/dp_j = beta_j a_j - sum_{i != j} abs_h2[j, i] gamma_i, reduced by the
    # same order-invariant sum as the denominators
    cross = abs_h2 * gamma[..., None, :]
    diag = np.arange(p.shape[-1])
    cross[..., diag, diag] = 0.0
    return f, beta * a - sorted_sum(cross)


@dataclass
class EpisodeTensors:
    """Channel-derived arrays reused across every evaluation of an episode."""

    abs_h2: np.ndarray  # (T, m, m)
    edges: np.ndarray  # (T, m, m)
    in_sums: np.ndarray  # (T, m)


def episode_tensors(h_episode: np.ndarray, cfg: RrmProblemConfig) -> EpisodeTensors:
    abs_h2 = np.abs(np.asarray(h_episode)) ** 2
    if abs_h2.ndim != 3 or abs_h2.shape[0] < 1 or abs_h2.shape[1:] != (cfg.m, cfg.m):
        raise DimensionMismatch(
            f"episode shape {abs_h2.shape} inconsistent with m={cfg.m}"
        )
    graph = build_graph(abs_h2, cfg)
    return EpisodeTensors(abs_h2=abs_h2, edges=graph.edges, in_sums=graph.in_sums)


def episode_eval(
    tensors: EpisodeTensors,
    mu: np.ndarray,
    params: GnnParams,
    cfg: RrmProblemConfig,
    node_features: np.ndarray | None = None,
) -> tuple[float, GnnParams, np.ndarray]:
    """Episode Lagrangian, its parameter gradient, and the average rates.

    ``node_features`` defaults to the duals; passing a constant vector turns
    the network into a channel-only policy, with the duals entering solely
    through the objective weights.

    The episode is processed in time blocks of ``core.block_steps`` steps,
    budgeted by the (n, m, f) hidden activations.  The rates of every block
    land in one (T, m) array, so the value and average rates do not depend
    on the block length; the block gradients are summed in block order.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (cfg.m,):
        raise DimensionMismatch(f"duals {mu.shape} inconsistent with m={cfg.m}")
    n_steps = tensors.abs_h2.shape[0]
    step_weights = lagrangian_rate_weights(mu, cfg) / n_steps
    feats = mu if node_features is None else np.asarray(node_features, dtype=float)
    y0 = feats[:, None]
    n_block = block_steps(8 * cfg.m * max(params.dims.f1, params.dims.f2))
    f = np.empty((n_steps, cfg.m))
    grads = None
    for t0 in range(0, n_steps, n_block):
        win = slice(t0, t0 + n_block)
        edges, in_sums = tensors.edges[win], tensors.in_sums[win]
        pre, cache = _forward_tensors(y0, edges, in_sums, params)
        sig = _sigmoid(pre)
        f[win], dldp = _d_lagrangian_d_powers(
            tensors.abs_h2[win], cfg.p_max * sig, step_weights, cfg
        )
        d_pre = dldp * cfg.p_max * sig * (1.0 - sig)
        block_grads = _backward_tensors(d_pre, cache, edges, in_sums, params)
        if grads is None:
            grads = block_grads
        else:
            grads.flat += block_grads.flat
    avg_f = f.mean(axis=0)
    return lagrangian(avg_f, mu, cfg), grads, avg_f


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


def _dims_block(params: GnnParams) -> dict:
    dims = params.feature_dims
    return {
        "f0": dims[0],
        "f1": dims[1],
        "f2": dims[2],
        "f3": dims[3],
        "use_bias": params.dims.use_bias,
    }


def _checkpoint_dict(ckpt: Checkpoint) -> dict:
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "tool_version": __version__,
        "seed": ckpt.seed,
        "iteration": ckpt.iteration,
        "dims": _dims_block(ckpt.params),
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


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _checkpoint_array(name: str, rec) -> np.ndarray:
    if not isinstance(rec, dict) or not isinstance(rec.get("shape"), list):
        raise ConfigError(f"array {name} needs a shape list and a data list")
    if not all(_is_int(n) and n >= 0 for n in rec["shape"]):
        raise ConfigError(f"array {name} has an invalid shape {rec['shape']}")
    try:
        a = np.array(rec["data"])
        if a.ndim != 1 or a.dtype.kind not in "iuf":
            raise ValueError("data must be a flat list of numbers")
        a = a.astype(float).reshape(rec["shape"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"array {name}: {exc}") from None
    if not np.isfinite(a).all():
        raise ConfigError(f"array {name} holds non-finite values")
    return a


def _checkpoint_from_dict(d) -> Checkpoint:
    if not isinstance(d, dict):
        raise ConfigError("not a JSON object")
    if d.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format {d.get('format_version')}")
    records, dims = d.get("arrays"), d.get("dims")
    if not isinstance(records, dict) or not isinstance(dims, dict):
        raise ConfigError("needs an arrays object and a dims object")
    arrays = {name: _checkpoint_array(name, rec) for name, rec in records.items()}
    f1, f2 = (
        arrays[k].shape[1] if k in arrays and arrays[k].ndim == 2 else 0
        for k in ("layer1.w1", "layer2.w1")
    )
    if min(f1, f2) < 1 or not isinstance(dims.get("use_bias"), bool):
        raise ConfigError("needs (1, f) layer weights with f >= 1 and a boolean use_bias")
    # the same constructor as training fixes the names and the shape chain
    params = init_params(GnnConfig(f1=f1, f2=f2, use_bias=dims["use_bias"]), 0)
    expected = dict(params.named_arrays())
    for name in sorted(expected.keys() | arrays.keys()):
        want = expected[name].shape if name in expected else "no such array"
        got = arrays[name].shape if name in arrays else "missing"
        if got != want:
            raise ConfigError(
                f"array {name}: {got}, the chain 1 -> {f1} -> {f2} -> 1 needs {want}"
            )
        expected[name][...] = arrays[name]
    if dims != _dims_block(params):
        raise ConfigError(f"dims block {dims} disagrees with the arrays")
    if not (_is_int(d.get("seed")) and _is_int(d.get("iteration"))):
        raise ConfigError("seed and iteration must be integers")
    config_echo = d.get("config_echo", {})
    if not isinstance(config_echo, dict):
        raise ConfigError("config_echo must be an object")
    return Checkpoint(
        params=params, seed=d["seed"], iteration=d["iteration"], config_echo=config_echo
    )


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint; malformed content of any kind raises ConfigError."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        d = json.loads(raw)
    except ValueError as exc:  # also invalid UTF-8
        raise ConfigError(f"checkpoint {path} is not valid JSON: {exc}") from None
    try:
        return _checkpoint_from_dict(d)
    except ConfigError as exc:
        raise ConfigError(f"checkpoint {path}: {exc}") from None


def require_dims(params: GnnParams, dims: GnnConfig) -> None:
    """Raise unless the checkpointed layer sizes match the configured ones."""
    if params.feature_dims != dims.feature_dims:
        raise CheckpointDimMismatch(
            f"checkpoint dims {params.feature_dims} vs configured {dims.feature_dims}"
        )
