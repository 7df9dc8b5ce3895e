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
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .core import (
    RrmProblemConfig,
    interference_denominators,
    lagrangian,
    lagrangian_rate_weights,
    rates_from_gain2,
    sorted_sum,
)
from .errors import (
    CheckpointDimMismatch,
    ConfigError,
    DimensionMismatch,
    NonFiniteActivation,
)
from .graph import RrmGraph, episode_edge_tensors
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


@dataclass
class GnnParams:
    """All trainable arrays; also the container for accumulated gradients."""

    w1: list[np.ndarray]  # per layer: (f_in, f_out)
    w2: list[np.ndarray]
    w3: list[np.ndarray]
    b: list[np.ndarray]  # per layer: (f_out,)
    w_out: np.ndarray  # (f2, 1)
    b_out: np.ndarray  # (1,)
    use_bias: bool = True

    @property
    def feature_dims(self) -> tuple[int, ...]:
        dims = [self.w1[0].shape[0]]
        dims += [w.shape[1] for w in self.w1]
        dims.append(self.w_out.shape[1])
        return tuple(dims)

    def named_arrays(self) -> list[tuple[str, np.ndarray]]:
        """Stable (name, array) ordering used by checkpoints and gradchecks."""
        out = []
        for l in range(len(self.w1)):
            out.append((f"layer{l + 1}.w1", self.w1[l]))
            out.append((f"layer{l + 1}.w2", self.w2[l]))
            out.append((f"layer{l + 1}.w3", self.w3[l]))
            out.append((f"layer{l + 1}.b", self.b[l]))
        out.append(("out.w", self.w_out))
        out.append(("out.b", self.b_out))
        return out

    def copy(self) -> "GnnParams":
        return GnnParams(
            w1=[a.copy() for a in self.w1],
            w2=[a.copy() for a in self.w2],
            w3=[a.copy() for a in self.w3],
            b=[a.copy() for a in self.b],
            w_out=self.w_out.copy(),
            b_out=self.b_out.copy(),
            use_bias=self.use_bias,
        )

    def zeros_like(self) -> "GnnParams":
        z = self.copy()
        for _, a in z.named_arrays():
            a[...] = 0.0
        return z

    def add_scaled(self, other: "GnnParams", scale: float) -> None:
        """In-place self += scale * other (shape-checked)."""
        for (name, a), (oname, o) in zip(self.named_arrays(), other.named_arrays()):
            if name != oname or a.shape != o.shape:
                raise DimensionMismatch(f"{name}{a.shape} vs {oname}{o.shape}")
            a += scale * o

    def nbytes(self) -> int:
        return sum(a.nbytes for _, a in self.named_arrays())

    def is_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for _, a in self.named_arrays())


GradAccumulator = GnnParams


@dataclass
class PolicyOutput:
    powers: np.ndarray  # (m,), in [0, p_max]
    pre_activation: np.ndarray  # (m,), the scalar node outputs before sigmoid


def init_params(dims: GnnConfig, seed: int) -> GnnParams:
    """Uniform(-s, s) weights with s = sqrt(6 / (fan_in + fan_out)); zero biases."""
    dims.validate()
    rng = generator(seed)
    sizes = dims.feature_dims
    w1, w2, w3, b = [], [], [], []
    for l in range(2):
        fin, fout = sizes[l], sizes[l + 1]
        s = np.sqrt(6.0 / (fin + fout))
        w1.append(rng.uniform(-s, s, size=(fin, fout)))
        w2.append(rng.uniform(-s, s, size=(fin, fout)))
        w3.append(rng.uniform(-s, s, size=(fin, fout)))
        b.append(np.zeros(fout))
    s = np.sqrt(6.0 / (sizes[2] + sizes[3]))
    w_out = rng.uniform(-s, s, size=(sizes[2], sizes[3]))
    return GnnParams(
        w1=w1, w2=w2, w3=w3, b=b, w_out=w_out, b_out=np.zeros(1),
        use_bias=dims.use_bias,
    )


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

    y0: (..., m, f0), edges: (..., m, m), in_sums: (..., m).
    Returns the pre-sigmoid node scalars with shape (..., m).
    """
    y = y0
    inputs, masks, aggs = [], [], []
    s = in_sums[..., None]
    edges_t = np.swapaxes(edges, -1, -2)
    for l in range(len(params.w1)):
        agg = edges_t @ y
        z = y @ params.w1[l] + s * (y @ params.w2[l]) - agg @ params.w3[l]
        if params.use_bias:
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
        y_in = cache.inputs[l]
        grads.w1[l][...] = _contract(y_in, gz)
        grads.w2[l][...] = _contract(s * y_in, gz)
        grads.w3[l][...] = -_contract(cache.aggregates[l], gz)
        if params.use_bias:
            grads.b[l][...] = gz.sum(axis=batch_axes)
        if l > 0:  # nothing reads the gradient in the network input
            gy = (
                gz @ params.w1[l].T
                + s * (gz @ params.w2[l].T)
                - edges @ (gz @ params.w3[l].T)
            )
    return grads


def forward(graph: RrmGraph, params: GnnParams, p_max: float) -> PolicyOutput:
    """Transmit powers p_max * sigmoid(pre-activation) for one graph."""
    if graph.node_features.shape != (graph.m, params.feature_dims[0]):
        raise DimensionMismatch(
            f"node features {graph.node_features.shape} vs m={graph.m}, "
            f"f0={params.feature_dims[0]}"
        )
    pre, _ = _forward_tensors(
        graph.node_features, graph.edge_weights, graph.edge_weights.sum(axis=0), params
    )
    return PolicyOutput(powers=p_max * _sigmoid(pre), pre_activation=pre)


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

    @property
    def n_steps(self) -> int:
        return self.abs_h2.shape[0]


def episode_tensors(h_episode: np.ndarray, cfg: RrmProblemConfig) -> EpisodeTensors:
    abs_h2 = np.abs(np.asarray(h_episode)) ** 2
    if abs_h2.ndim != 3 or abs_h2.shape[0] < 1 or abs_h2.shape[1:] != (cfg.m, cfg.m):
        raise DimensionMismatch(
            f"episode shape {abs_h2.shape} inconsistent with m={cfg.m}"
        )
    edges, in_sums = episode_edge_tensors(abs_h2, cfg)
    return EpisodeTensors(abs_h2=abs_h2, edges=edges, in_sums=in_sums)


def episode_eval(
    tensors: EpisodeTensors,
    mu: np.ndarray,
    params: GnnParams,
    cfg: RrmProblemConfig,
    utility_scale: float = 1.0,
    node_features: np.ndarray | None = None,
) -> tuple[float, GnnParams, np.ndarray]:
    """Episode Lagrangian, its parameter gradient, and the average rates.

    ``node_features`` defaults to the duals; passing a constant vector turns
    the network into a channel-only policy, with the duals entering solely
    through the objective weights.
    """
    mu = np.asarray(mu, dtype=float)
    if mu.shape != (cfg.m,):
        raise DimensionMismatch(f"duals {mu.shape} inconsistent with m={cfg.m}")
    n_steps = tensors.n_steps
    step_weights = lagrangian_rate_weights(mu, cfg, utility_scale) / n_steps
    feats = mu if node_features is None else np.asarray(node_features, dtype=float)
    y0 = np.broadcast_to(feats[None, :, None], (n_steps, cfg.m, 1))
    pre, cache = _forward_tensors(y0, tensors.edges, tensors.in_sums, params)
    sig = _sigmoid(pre)
    f, dldp = _d_lagrangian_d_powers(tensors.abs_h2, cfg.p_max * sig, step_weights, cfg)
    avg_f = f.mean(axis=0)
    value = lagrangian(avg_f, mu, cfg, utility_scale)
    d_pre = dldp * cfg.p_max * sig * (1.0 - sig)
    grads = _backward_tensors(d_pre, cache, tensors.edges, tensors.in_sums, params)
    return value, grads, avg_f


def episode_lagrangian_and_grad(
    h_episode: np.ndarray,
    mu: np.ndarray,
    params: GnnParams,
    cfg: RrmProblemConfig,
    utility_scale: float = 1.0,
) -> tuple[float, GnnParams]:
    """Episode objective for fixed duals, and its exact parameter gradient.

    The objective is the Lagrangian of the episode-average rates under the
    policy p_t = p_max * sigmoid(net(H_t, mu)); its gradient in the rates is
    the constant weight vector (utility_scale + mu) / T, which is chained
    through the rate function, the sigmoid head, and every network layer.
    """
    value, grads, _ = episode_eval(
        episode_tensors(h_episode, cfg), mu, params, cfg, utility_scale
    )
    return value, grads


def apply_update(params: GnnParams, grad: GradAccumulator, eta_phi: float) -> GnnParams:
    """Plain gradient-ascent step: params + eta_phi * grad."""
    out = params.copy()
    out.add_scaled(grad, eta_phi)
    return out


def episode_average_rates(
    h_episode: np.ndarray, mu: np.ndarray, params: GnnParams, cfg: RrmProblemConfig
) -> np.ndarray:
    """Episode-average per-user rates under the policy with fixed duals."""
    tensors = episode_tensors(h_episode, cfg)
    y0 = np.broadcast_to(
        np.asarray(mu, dtype=float)[None, :, None], (tensors.n_steps, cfg.m, 1)
    )
    pre, _ = _forward_tensors(y0, tensors.edges, tensors.in_sums, params)
    return rates_from_gain2(tensors.abs_h2, cfg.p_max * _sigmoid(pre), cfg).mean(axis=0)


# ---------------------------------------------------------------------------
# Checkpoints: self-describing JSON, byte-identical across load/save cycles.
# ---------------------------------------------------------------------------


@dataclass
class Checkpoint:
    params: GnnParams
    seed: int
    iteration: int
    config_echo: dict = field(default_factory=dict)


def _checkpoint_dict(ckpt: Checkpoint) -> dict:
    dims = ckpt.params.feature_dims
    return {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "tool_version": __version__,
        "seed": ckpt.seed,
        "iteration": ckpt.iteration,
        "dims": {
            "f0": dims[0],
            "f1": dims[1],
            "f2": dims[2],
            "f3": dims[3],
            "use_bias": ckpt.params.use_bias,
        },
        "arrays": {
            name: {"shape": list(a.shape), "data": a.ravel().tolist()}
            for name, a in ckpt.params.named_arrays()
        },
        "config_echo": ckpt.config_echo,
    }


def checkpoint_bytes(ckpt: Checkpoint) -> bytes:
    return json.dumps(_checkpoint_dict(ckpt), sort_keys=True, separators=(",", ":")).encode()


def save_checkpoint(path, ckpt: Checkpoint) -> None:
    with open(path, "wb") as f:
        f.write(checkpoint_bytes(ckpt))


def load_checkpoint(path) -> Checkpoint:
    with open(path) as f:
        d = json.load(f)
    if d.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format {d.get('format_version')}")
    arrays = {}
    for name, rec in d["arrays"].items():
        arrays[name] = np.array(rec["data"], dtype=float).reshape(rec["shape"])
    n_layers = sum(1 for name in arrays if name.endswith(".w1"))
    params = GnnParams(
        w1=[arrays[f"layer{l + 1}.w1"] for l in range(n_layers)],
        w2=[arrays[f"layer{l + 1}.w2"] for l in range(n_layers)],
        w3=[arrays[f"layer{l + 1}.w3"] for l in range(n_layers)],
        b=[arrays[f"layer{l + 1}.b"] for l in range(n_layers)],
        w_out=arrays["out.w"],
        b_out=arrays["out.b"],
        use_bias=bool(d["dims"]["use_bias"]),
    )
    return Checkpoint(
        params=params,
        seed=int(d["seed"]),
        iteration=int(d["iteration"]),
        config_echo=d.get("config_echo", {}),
    )


def require_dims(params: GnnParams, dims: GnnConfig) -> None:
    """Raise unless the checkpointed layer sizes match the configured ones."""
    if params.feature_dims != dims.feature_dims:
        raise CheckpointDimMismatch(
            f"checkpoint dims {params.feature_dims} vs configured {dims.feature_dims}"
        )
