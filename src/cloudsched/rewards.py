"""Reward model for time-varying workloads, plus profile clustering tools.

total_reward scores one online step from the simulator state it left and
the overuse pairs it fired. All four penalty terms are nonpositive:

* competition: co-resident workloads competing for the same resource on the
  same machine, scored by pairwise inner products of their demand series.
* utilization: unused capacity |1 - used|^k_u of machines that are in use.
* overuse: a fixed charge the first time a (machine, resource) pair is
  pushed past capacity; the pair never fires twice.
* wait: linear in the number of requests waiting in queues.

Clustering groups users by the temporal shape of their demand, either with
dynamic time warping on raw series or with euclidean distance on extracted
features; cluster representatives are member series (medoids).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigurationError
from .simulator import OveruseEvent, SimState, _residents
from .workload import RESOURCES, UsageProfile


@dataclass(frozen=True)
class RewardConfig:
    """Penalty coefficients and the resource kinds under consideration.

    k_u is an exponent, not a weight; k_u == 0 is treated as "utilization
    term disabled" (the literal |U|^0 reading would charge a constant).
    An empty resources tuple disables every per-resource term.
    """

    k_c: float = 1.0
    k_u: float = 2.0
    k_o: float = 5.0
    k_w: float = 1.0
    resources: tuple[str, ...] = RESOURCES

    def __post_init__(self):
        # A tuple, whatever sequence was given: ResidentSet.pair_sums keys on it.
        object.__setattr__(self, "resources", tuple(self.resources))
        for name in ("k_c", "k_u", "k_o", "k_w"):
            if not getattr(self, name) >= 0:  # also false for NaN
                raise ConfigurationError(f"{name} must be >= 0")
        bad = [d for d in self.resources if d not in RESOURCES]
        if bad:
            raise ConfigurationError(f"unknown resources: {bad}")
        repeated = sorted({d for d in self.resources if self.resources.count(d) > 1})
        if repeated:
            # Each per-resource term would charge a repeated resource again.
            raise ConfigurationError(f"resources lists {repeated} more than once")


def overuse_penalty(
    events: Iterable[OveruseEvent | tuple[int, str]], config: RewardConfig
) -> float:
    """Fixed charge per unique (machine, resource) first-overshoot event."""
    pairs = set()
    for e in events:
        if isinstance(e, OveruseEvent):
            pairs.add((e.machine_id, e.resource))
        else:
            pairs.add((e[0], e[1]))
    return -config.k_o * len(pairs)


def wait_penalty(queue_len: int, config: RewardConfig) -> float:
    """Linear charge on the number of waiting requests."""
    if queue_len < 0:
        raise ValueError("queue length cannot be negative")
    return -config.k_w * queue_len


def total_reward(
    state: SimState, new_overuse: Sequence[tuple[int, str]], config: RewardConfig
) -> float:
    """The reward of the step that left the state as it is and fired the
    new_overuse pairs (simulator.step's result): competition + utilization
    + overuse + wait, added in that order.

    Competition adds k_c times each pair sum of every machine's resident
    set, machine by machine and in the configured resources' order.
    Utilization adds |1 - used|^k_u over the in-use machines and the
    resources, used being the machine's summed resident demand at the
    clock's slot. With no resources no term reads a machine, and no
    resident set is built.
    """
    k_c, k_u, resources = config.k_c, config.k_u, config.resources
    competition = utilization = 0.0
    if resources:
        slot = int(math.floor(state.clock))
        for machine in state.machines:
            res = _residents(state, machine)
            for pair_sum in res.pair_sums(resources):
                competition += k_c * pair_sum
            if k_u != 0 and machine.in_use:
                used = res.used_at(slot)
                for d in resources:
                    utilization += abs(1.0 - used[d]) ** k_u
    return (
        -competition
        + (0.0 if k_u == 0 else -utilization)
        + overuse_penalty(new_overuse, config)
        + wait_penalty(state.waiting_count(), config)
    )


# ---------------------------------------------------------------------------
# Series distance and features
# ---------------------------------------------------------------------------

_DTW_BLOCK = 256  # pairs per dynamic-programming pass: memory is O(block x length)


def _dtw_pairs(
    xs: Sequence[np.ndarray], ys: Sequence[np.ndarray], block: int = _DTW_BLOCK
) -> np.ndarray:
    """DTW distance of every pair (xs[p], ys[p]), a block of pairs at a time.

    The table is filled row by row, each cell cost + min(up, left, diag) as
    numpy ops over the pair axis. Series are zero-padded to the longest in
    the block; a pair's cells up to (n_p, m_p) never read the padding, and
    its distance is read from row n_p.
    """
    out = np.empty(len(xs))
    for lo in range(0, len(xs), block):
        bx, by = xs[lo : lo + block], ys[lo : lo + block]
        nx = np.array([len(s) for s in bx])
        ny = np.array([len(s) for s in by])
        x = np.zeros((len(bx), nx.max()))
        y = np.zeros((ny.max(), len(by)))  # column p is pair p's second series
        for p, (a, b) in enumerate(zip(bx, by)):
            x[p, : len(a)] = a
            y[: len(b), p] = b
        prev = np.full((len(y) + 1, len(bx)), np.inf)
        prev[0] = 0.0
        cur, cost = np.empty_like(prev), np.empty_like(y)
        for i in range(x.shape[1]):
            np.abs(np.subtract(x[:, i], y, out=cost), out=cost)
            np.minimum(prev[1:], prev[:-1], out=cur[1:])  # min(up, diag)
            cur[0] = np.inf
            for j in range(1, len(cur)):
                np.minimum(cur[j], cur[j - 1], out=cur[j])  # ... and left
                cur[j] += cost[j - 1]
            ends = np.flatnonzero(nx == i + 1)
            out[lo + ends] = cur[ny[ends], ends]
            prev, cur = cur, prev
    return out


def dtw_distance(a: Sequence[float], b: Sequence[float]) -> float:
    """Dynamic time warping distance with |x - y| local cost.

    Allowed steps are match, insert and delete; the warp is unconstrained.
    Runs on the batched kernel that kmeans_cluster uses for all its pairs.
    """
    x = np.asarray(a, dtype=float)
    y = np.asarray(b, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or x.size == 0 or y.size == 0:
        raise ValueError("dtw_distance needs two non-empty 1-d series")
    return float(_dtw_pairs([x], [y])[0])


@dataclass(frozen=True)
class ProfileFeatures:
    """Compact description of one demand series."""

    ar_coeffs: np.ndarray
    trend_slope: float
    trend_intercept: float
    mean: float
    peak_slot: int

    def as_array(self) -> np.ndarray:
        return np.concatenate(
            [
                np.asarray(self.ar_coeffs, dtype=float),
                [self.trend_slope, self.trend_intercept, self.mean, float(self.peak_slot)],
            ]
        )


def extract_features(series: Sequence[float], ar_order: int = 2) -> ProfileFeatures:
    """Autoregressive coefficients, linear trend, mean and peak position.

    The AR(p) fit is ordinary least squares on lagged values with an
    intercept; a constant series fits exactly (zero residual). Needs at
    least ar_order + 2 points.
    """
    s = np.asarray(series, dtype=float)
    if s.ndim != 1:
        raise ValueError("series must be 1-d")
    p = int(ar_order)
    if p < 1:
        raise ConfigurationError("ar_order must be >= 1")
    if len(s) < p + 2:
        raise ValueError(f"series needs at least {p + 2} points for ar_order={p}")
    # Lag design matrix: row t is [s[t-1], ..., s[t-p], 1].
    rows = [np.concatenate([s[t - p : t][::-1], [1.0]]) for t in range(p, len(s))]
    X = np.stack(rows)
    y = s[p:]
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    t = np.arange(len(s), dtype=float)
    slope, intercept = np.polyfit(t, s, 1)
    return ProfileFeatures(
        ar_coeffs=coef[:p],
        trend_slope=float(slope),
        trend_intercept=float(intercept),
        mean=float(s.mean()),
        peak_slot=int(np.argmax(s)),
    )


# ---------------------------------------------------------------------------
# K-means (medoid flavour) over user profiles
# ---------------------------------------------------------------------------

@dataclass
class ClusterModel:
    """Grouping of users by demand shape.

    centroids are member series (medoids) in both distance modes; inertia is
    the summed distance of members to their centroid, and inertia_history
    records it after every assignment/update sweep (nonincreasing).
    """

    k: int
    assignments: dict[int, int]
    centroids: list[np.ndarray]
    centroid_users: list[int]
    inertia: float
    inertia_history: tuple[float, ...]


def kmeans_cluster(
    profiles: Sequence[UsageProfile],
    k: int = 3,
    distance: str = "dtw",
    seed: int = 0,
    max_iter: int = 100,
) -> ClusterModel:
    """Cluster one profile per user into k groups.

    distance "dtw" compares raw series with dynamic time warping; distance
    "euclidean" compares extracted feature vectors. Every user ends up in
    exactly one cluster and cluster representatives are member series.
    """
    if distance not in ("dtw", "euclidean"):
        raise ConfigurationError(f"unknown distance {distance!r}")
    n = len(profiles)
    if k < 1 or k > n:
        raise ConfigurationError(f"k={k} must satisfy 1 <= k <= {n} (number of users)")
    if max_iter < 1:
        raise ConfigurationError(f"max_iter must be >= 1, got {max_iter}")
    users = [p.user_id for p in profiles]
    if len(set(users)) != n:
        raise ConfigurationError("profiles must be unique per user for clustering")
    series = [np.asarray(p.series, dtype=float) for p in profiles]
    iu, ju = np.triu_indices(n, 1)  # every pair i < j
    if distance == "euclidean":
        order = min(2, max(1, min(len(s) for s in series) - 2))
        feats = [extract_features(s, ar_order=order).as_array() for s in series]
        pair_dist = [np.linalg.norm(feats[i] - feats[j]) for i, j in zip(iu, ju)]
    else:
        pair_dist = _dtw_pairs([series[i] for i in iu], [series[j] for j in ju])
    dist = np.zeros((n, n))
    dist[iu, ju] = dist[ju, iu] = pair_dist

    rng = np.random.default_rng(seed)
    # Farthest-point seeding: random first representative, then each next one
    # maximizes its distance to everything already chosen. A plain random
    # draw can put two representatives inside the same tight group, and with
    # medoid updates that degenerate start never separates again.
    centroids = [int(rng.integers(0, n))]
    while len(centroids) < k:
        gaps = dist[:, centroids].min(axis=1)
        gaps[centroids] = -1.0  # never re-pick a chosen point
        centroids.append(int(np.argmax(gaps)))
    assign = np.zeros(n, dtype=int)
    history: list[float] = []
    for _ in range(max_iter):
        new_assign = np.array(
            [int(np.argmin([dist[i, c] for c in centroids])) for i in range(n)]
        )
        # Medoid update: member minimizing total within-cluster distance.
        for c_idx in range(k):
            members = np.where(new_assign == c_idx)[0]
            if len(members) == 0:
                continue  # empty cluster keeps its previous representative
            within = dist[np.ix_(members, members)].sum(axis=1)
            centroids[c_idx] = int(members[int(np.argmin(within))])
        inertia = float(
            sum(dist[i, centroids[new_assign[i]]] for i in range(n))
        )
        history.append(inertia)
        if np.array_equal(new_assign, assign) and len(history) > 1:
            break
        assign = new_assign
    return ClusterModel(
        k=k,
        assignments={users[i]: int(assign[i]) for i in range(n)},
        centroids=[series[c].copy() for c in centroids],
        centroid_users=[users[c] for c in centroids],
        inertia=history[-1],
        inertia_history=tuple(history),
    )


def kmeans_elbow(
    profiles: Sequence[UsageProfile],
    ks: Sequence[int],
    distance: str = "dtw",
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Inertia per candidate k, for elbow inspection."""
    return [
        (k, kmeans_cluster(profiles, k=k, distance=distance, seed=seed).inertia)
        for k in ks
    ]


CLUSTER_CSV_COLUMNS = ("user_id", "cluster_id")
CENTROID_CSV_COLUMNS = ("cluster_id", "slot", "value")


def write_cluster_csv(model: ClusterModel, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CLUSTER_CSV_COLUMNS)
        for user in sorted(model.assignments):
            writer.writerow([user, model.assignments[user]])


def write_centroid_csv(model: ClusterModel, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CENTROID_CSV_COLUMNS)
        for c_idx, series in enumerate(model.centroids):
            for slot, value in enumerate(series):
                writer.writerow([c_idx, slot, repr(float(value))])
