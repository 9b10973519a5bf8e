"""Trace-level quality metrics: time, money, balance, deadlines, blended QoS."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError
from .simulator import SimTrace, TaskRecord
from .workload import VmSpec

_NORM_EPS = 1e-12


@dataclass(frozen=True)
class QosWeights:
    """Blend weights for the multi-objective score; must sum to 1."""

    time: float = 0.5
    cost: float = 0.3
    reliability: float = 0.2

    def __post_init__(self):
        for name in ("time", "cost", "reliability"):
            if not getattr(self, name) >= 0:  # also false for NaN
                raise ConfigurationError(f"weight {name} must be >= 0")
        total = self.time + self.cost + self.reliability
        if abs(total - 1.0) > 1e-9:
            raise ConfigurationError(f"weights must sum to 1, got {total}")


@dataclass(frozen=True)
class RawQos:
    """Unnormalized per-trace quality triple."""

    time_cost: float
    money_cost: float
    reliability: float


def _spec_map(specs: Sequence[VmSpec] | Mapping[int, VmSpec]) -> Mapping[int, VmSpec]:
    if isinstance(specs, Mapping):
        return specs
    return {v.id: v for v in specs}


def _mean_by_arrival(trace: SimTrace, value: Callable[[TaskRecord], float]) -> float:
    """value(record) averaged over the trace's records, added left to right
    from 0.0 in (arrival, task id) order, whatever order they were written
    in. The search scorers add in that order too, so they equal raw_qos."""
    total = 0.0
    for r in sorted(trace.records.values(), key=lambda r: (r.arrival, r.task_id)):
        total += value(r)
    return total / len(trace.records)


def time_cost(trace: SimTrace) -> float:
    """Mean flow time: completion minus arrival, averaged over tasks."""
    if not trace.records:
        raise ValueError("time_cost of an empty trace is undefined")
    return _mean_by_arrival(trace, lambda r: r.completion - r.arrival)


def _task_charge(spec: VmSpec, transfer: float, exec_time: float) -> float:
    """One task's charge: execution and transfer seconds at the vm's rates."""
    return exec_time * spec.instr_cost_rate + transfer * spec.bw_cost_rate


def money_cost(trace: SimTrace, specs: Sequence[VmSpec] | Mapping[int, VmSpec]) -> float:
    """Per-task average charge: execution and transfer seconds at vm rates."""
    if not trace.records:
        return 0.0
    by_id = _spec_map(specs)
    return _mean_by_arrival(
        trace, lambda r: _task_charge(by_id[r.machine_id], r.transfer_time, r.exec_time)
    )


def reliability(trace: SimTrace, deadlines: Mapping[int, float] | None = None) -> float:
    """Fraction of deadline-bearing tasks finishing on time; 1.0 if none."""
    if deadlines is None:
        return 1.0
    with_deadline = [tid for tid in trace.records if deadlines.get(tid) is not None]
    if not with_deadline:
        return 1.0
    met = sum(
        1 for tid in with_deadline if trace.records[tid].completion <= deadlines[tid]
    )
    return met / len(with_deadline)


def machine_usage_totals(trace: SimTrace) -> list[float]:
    """Busy seconds per machine (transfer + execution), stable machine order."""
    return [trace.machine_busy[m] for m in sorted(trace.machine_busy)]


def load_rate(usages: Sequence[float]) -> float:
    """Dispersion of per-machine usage totals: sum_i |use_i - avg| / (avg * n).

    0 for an even spread, 1.0 for [10, 0], 0 when everything is idle.
    """
    u = np.asarray(usages, dtype=float)
    if u.size == 0:
        raise ValueError("load_rate needs at least one machine")
    if np.any(u < 0):
        raise ValueError("usage totals cannot be negative")
    avg = float(u.mean())
    if avg <= _NORM_EPS:
        return 0.0
    return float(np.abs(u - avg).sum() / (avg * u.size))


def _qos_blend(weights: QosWeights, t_hat: float, c_hat: float, reliability: float) -> float:
    """One score from normalized time and money and the reliability."""
    return weights.time * t_hat + weights.cost * c_hat + weights.reliability * (1.0 - reliability)


def qos_scores(raws: Sequence[RawQos], weights: QosWeights) -> list[float]:
    """Blend raw triples into scores, min-max normalizing time and money
    within the given pool. Lower is better; a singleton pool scores the
    time and cost axes as 0."""
    if not raws:
        return []

    def normalize(vals: list[float]) -> list[float]:
        lo, hi = min(vals), max(vals)
        if hi - lo <= _NORM_EPS:
            return [0.0 for _ in vals]
        return [(v - lo) / (hi - lo) for v in vals]

    t_hat = normalize([r.time_cost for r in raws])
    c_hat = normalize([r.money_cost for r in raws])
    return [_qos_blend(weights, t, c, r.reliability) for t, c, r in zip(t_hat, c_hat, raws)]


def raw_qos(
    trace: SimTrace,
    specs: Sequence[VmSpec] | Mapping[int, VmSpec],
    deadlines: Mapping[int, float] | None = None,
) -> RawQos:
    return RawQos(
        time_cost=time_cost(trace),
        money_cost=money_cost(trace, specs),
        reliability=reliability(trace, deadlines),
    )


def multi_qos(
    traces: Sequence[SimTrace],
    specs: Sequence[VmSpec] | Mapping[int, VmSpec],
    weights: QosWeights,
    deadlines: Mapping[int, float] | None = None,
) -> list[float]:
    """Blended score per trace, normalized within this pool of traces."""
    raws = [raw_qos(t, specs, deadlines) for t in traces]
    return qos_scores(raws, weights)
