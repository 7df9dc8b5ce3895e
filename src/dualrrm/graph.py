"""Graph representation of the channel consumed by the policy network.

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
    mu: np.ndarray  # (m,) node features, shared by every step
    edges: np.ndarray  # (..., m, m), entry (i, j) on directed edge i -> j
    in_sums: np.ndarray  # (..., m), in_sums[..., v] = sum_u edges[..., u, v]


def edge_weights_from_gain2(
    abs_h2: np.ndarray, cfg: RrmProblemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Normalized edge weights and their normalizers from |h|^2 (..., m, m);
    the normalizers have the leading shape."""
    if not abs_h2.all():
        raise ZeroChannel("channel magnitude is zero on at least one link")
    logs = np.log(cfg.p_max * abs_h2 / cfg.noise)
    z = np.sqrt(sorted_sum((logs**2).reshape(logs.shape[:-2] + (-1,))))
    if not z.all():
        raise DegenerateNorm("all log channel strengths are zero")
    return logs / z[..., None, None], z


def build_graph(h: np.ndarray, mu: np.ndarray, cfg: RrmProblemConfig) -> RrmGraph:
    """Graph for the steps of ``h`` (..., m, m) under one dual vector: dual
    node features, normalized log-gain edges per step."""
    mu = np.asarray(mu, dtype=float)
    if (mu < 0).any():
        raise NegativeDual("dual variables must be nonnegative")
    if h.shape[-2:] != (cfg.m, cfg.m) or mu.shape != (cfg.m,):
        raise DimensionMismatch(
            f"channel {h.shape} / duals {mu.shape} inconsistent with m={cfg.m}"
        )
    weights, _ = edge_weights_from_gain2(np.abs(h) ** 2, cfg)
    return RrmGraph(mu=mu, edges=weights, in_sums=weights.sum(axis=-2))
