"""Per-time-step graph representation consumed by the policy network.

Users are nodes, the edge set is the full set of directed pairs including
self-edges, node features are the current dual variables, and the weight of
edge (i, j) is the log channel strength from transmitter i to receiver j,
normalized so the weight matrix has unit Frobenius norm:

    w(i, j) = log(P_max |h_ij|^2 / N) / Z,   Z = || log(P_max |H|^2 / N) ||_F

with the natural logarithm.  Weights may be negative for weak links; nothing
is clipped.  Z is reduced by ``core.sorted_sum``: the m^2 squared logs are
sorted ascending and then summed in one fixed pairwise order, so Z does not
depend on how the users are numbered and a whole episode is normalized in one
call, bit for bit like step by step.  Z stays within about 5e-16 relative of
its value from a correctly rounded sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import RrmProblemConfig, sorted_sum
from .errors import DegenerateNorm, DimensionMismatch, NegativeDual, ZeroChannel


@dataclass
class RrmGraph:
    m: int
    node_features: np.ndarray  # (m, 1)
    edge_weights: np.ndarray  # (m, m), entry (i, j) on directed edge i -> j
    z_norm: float


def _log_strengths(abs_h2: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    if not abs_h2.all():
        raise ZeroChannel("channel magnitude is zero on at least one link")
    return np.log(cfg.p_max * abs_h2 / cfg.noise)


def edge_normalizer(h: np.ndarray, cfg: RrmProblemConfig) -> float:
    """Frobenius norm of the elementwise log channel strengths."""
    return float(edge_weights_from_gain2(np.abs(h) ** 2, cfg)[1])


def edge_weights_from_gain2(
    abs_h2: np.ndarray, cfg: RrmProblemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized edge weights and their normalizers from |h|^2 (..., m, m);
    the normalizers have the leading shape."""
    logs = _log_strengths(abs_h2, cfg)
    z = np.sqrt(sorted_sum((logs**2).reshape(logs.shape[:-2] + (-1,))))
    if not z.all():
        raise DegenerateNorm("all log channel strengths are zero")
    return logs / z[..., None, None], z


def build_graph(h: np.ndarray, mu: np.ndarray, cfg: RrmProblemConfig) -> RrmGraph:
    """Graph for one time step: dual node features, normalized log-gain edges."""
    mu = np.asarray(mu, dtype=float)
    if (mu < 0).any():
        raise NegativeDual("dual variables must be nonnegative")
    if h.shape != (cfg.m, cfg.m) or mu.shape != (cfg.m,):
        raise DimensionMismatch(
            f"channel {h.shape} / duals {mu.shape} inconsistent with m={cfg.m}"
        )
    weights, z = edge_weights_from_gain2(np.abs(h) ** 2, cfg)
    return RrmGraph(
        m=cfg.m, node_features=mu.reshape(-1, 1), edge_weights=weights, z_norm=float(z)
    )


def episode_edge_tensors(
    abs_h2: np.ndarray, cfg: RrmProblemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Edge weights and in-weight sums for a whole episode.

    Returns (E, s) with E of shape (T, m, m) and s[t, v] = sum_u E[t, u, v].
    """
    weights, _ = edge_weights_from_gain2(abs_h2, cfg)
    return weights, weights.sum(axis=-2)
