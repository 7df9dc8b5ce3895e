"""Graph representation of the channel consumed by the policy network.

A graph carries the gains |h|^2 it was built from, which the rates read, and
the edge tensors derived from them.  Users are nodes, the edge set is the
full set of directed pairs including self-edges, node features are the
current dual variables, which ``policy.forward`` takes apart from the graph
because the edges do not depend on them, and the weight of edge (i, j) is
the log channel strength from transmitter i to receiver j, normalized so the
weight matrix has unit Frobenius norm:

    w(i, j) = log(P_max |h_ij|^2 / N) / Z,   Z = || log(P_max |H|^2 / N) ||_F

with the natural logarithm.  Weights may be negative for weak links; nothing
is clipped.  Z is reduced by ``core.sorted_sum``: the m^2 squared logs are
sorted ascending and then summed in one fixed pairwise order, so Z does not
depend on how the users are numbered and a whole episode is normalized in one
call, bit for bit like step by step.  Z stays within about 5e-16 relative of
its value from a correctly rounded sum.

Training keeps each episode as a ``GainEpisode``: the gains and the Z of
every step, T (m^2 + 1) floats.  ``block_graph`` builds a window of steps of
several episodes from them, with the same log, division and in-sum as
``build_graph``, so its edges match each whole episode's graph bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import RrmProblemConfig, full_power_inr, sorted_sum
from .errors import DegenerateNorm, DimensionMismatch, NumericalError, ZeroChannel


@dataclass
class RrmGraph:
    gain: np.ndarray  # (..., m, m) |h|^2, entry (i, j): transmitter i -> receiver j
    edges: np.ndarray  # (..., m, m), entry (i, j) on directed edge i -> j
    in_sums: np.ndarray  # (..., m), in_sums[..., v] = sum_u edges[..., u, v]

    def __getitem__(self, steps) -> "RrmGraph":
        """The graph of a subset of the leading axis, e.g. one dual window."""
        return RrmGraph(self.gain[steps], self.edges[steps], self.in_sums[steps])


def checked_gain_episode(gain: np.ndarray, n_steps: int, m: int) -> np.ndarray:
    """``gain`` as an array, if it holds real gains |h|^2 of at least
    ``n_steps`` steps, (T, ..., m, m): one episode, or several stacked on
    the axes between time and users."""
    gain = np.asarray(gain)
    if np.iscomplexobj(gain):
        raise DimensionMismatch("the episode holds complex channels; pass the gains |h|^2")
    if gain.ndim < 3 or gain.shape[0] < n_steps or gain.shape[-2:] != (m, m):
        raise DimensionMismatch(f"episode shape {gain.shape} cannot cover T={n_steps}, m={m}")
    return gain


def _log_strengths(abs_h2: np.ndarray, cfg: RrmProblemConfig) -> np.ndarray:
    """log(P_max |h|^2 / N) of every entry, the edges before normalization,
    computed in one new array."""
    logs = full_power_inr(abs_h2, cfg)
    return np.log(logs, out=logs)


def _range_note(abs_h2: np.ndarray) -> str:
    if abs_h2.dtype != np.float32:
        return ""
    low, high = np.finfo(np.float32).smallest_subnormal, np.finfo(np.float32).max
    return f" (float32 holds only gains and INRs in [{low:.1e}, {high:.1e}])"


def _normalized_logs(abs_h2: np.ndarray, cfg: RrmProblemConfig) -> tuple[np.ndarray, np.ndarray]:
    """The log strengths of ``abs_h2`` (..., m, m) and their norm Z per step;
    ZeroChannel or DegenerateNorm where no edge can be built."""
    if abs_h2.shape[-2:] != (cfg.m, cfg.m):
        raise DimensionMismatch(f"channel {abs_h2.shape} inconsistent with m={cfg.m}")
    if not abs_h2.all():
        raise ZeroChannel("channel magnitude is zero on at least one link" + _range_note(abs_h2))
    logs = _log_strengths(abs_h2, cfg)
    z = np.sqrt(sorted_sum(np.square(logs, order="C").reshape(logs.shape[:-2] + (-1,))))
    if not z.all():
        raise DegenerateNorm("all log channel strengths are zero")
    return logs, z


def _graph(abs_h2: np.ndarray, logs: np.ndarray, z: np.ndarray) -> RrmGraph:
    """The graph of ``abs_h2`` from its log strengths, which become the
    edges in place, and the norm Z of every step."""
    logs /= z[..., None, None]
    return RrmGraph(gain=abs_h2, edges=logs, in_sums=logs.sum(axis=-2))


def build_graph(abs_h2: np.ndarray, cfg: RrmProblemConfig) -> RrmGraph:
    """The gains ``abs_h2`` (..., m, m) with their normalized log-gain edges
    and in-sums for every step.  The node features, the duals, enter in
    ``policy.forward``."""
    return _graph(abs_h2, *_normalized_logs(abs_h2, cfg))


@dataclass
class GainEpisode:
    """The gains of an episode with the edge norm Z of every step, computed
    and checked as ``build_graph`` does, and refused with NumericalError
    where a gain or its full-power INR is not finite, as float32 gains can
    be; ``block_graph`` builds the graph of any window of its steps."""

    gain: np.ndarray  # (T, m, m) |h|^2
    cfg: RrmProblemConfig
    norm: np.ndarray = field(init=False)  # (T,) Z of every step

    def __post_init__(self):
        if self.gain.ndim != 3:  # execution's stacked (T, R, m, m) episodes are not one
            raise DimensionMismatch(f"episode shape {self.gain.shape} is not (T, m, m)")
        self.norm = _normalized_logs(self.gain, self.cfg)[1]
        if not np.isfinite(self.norm).all():  # an infinite or NaN log strength
            raise NumericalError("a channel gain or its full-power INR is not finite"
                                 + _range_note(self.gain))


def block_graph(episodes: list[GainEpisode], steps: slice, cfg: RrmProblemConfig,
                out: np.ndarray) -> RrmGraph:
    """The graph of the ``steps`` window of k episodes of one length, with
    leading axes (k, n), its gains stacked into ``out`` (k, n, m, m)."""
    gain = np.stack([e.gain[steps] for e in episodes], out=out)
    return _graph(gain, _log_strengths(gain, cfg), np.stack([e.norm[steps] for e in episodes]))
