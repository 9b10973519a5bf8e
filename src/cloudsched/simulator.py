"""Deterministic discrete-event simulation of task execution on machines.

One event core, two drivers. A SimState holds an episode's event heap, the
machines' FIFO queues and every record. The core joins a task to a machine,
starts it, and completes it: the completion writes the task's TaskRecord and
residency row, releases its successors and starts the machine's next queued
task. Both drivers run that core, so they produce identical traces for
equivalent decisions:

* run_simulation(workload, assignment) replays a static task-to-machine
  assignment, popping one event at a time. A task joins its machine the
  instant it becomes ready.
* init_state / step is an online stepper for schedulers that decide one
  dispatch at a time. A ready task waits until it is dispatched. Dispatch
  actions do not advance the clock (several dispatches may share an
  instant); a no-op advances to the next event, or by one slot when nothing
  is scheduled.

Each machine runs one task at a time and serves its queue in join order.
A task becomes ready at max(arrival, latest predecessor completion). Input
and output data transfer is charged on the assigned machine before execution,
so a task occupies its machine for transfer_time + exec_time seconds.

Resource usage is sampled at integer slot boundaries: a user counts as
resident on a machine at slot s iff one of their tasks joined the machine
queue at or before s and completes after s. A (machine, resource) pair
fires an overuse event at the first sampled slot where its summed resident
demand exceeds 1.0, each capacity being 1.0; the pair never fires again,
so each machine keeps the resources that have not fired on it. Summed
demand, and the competition and utilization that rewards.total_reward
charges each step, are read from each machine's ResidentSet. Each machine
counts its users' running and queued tasks as they join and complete, and
its set is rebuilt only when its resident users change. A set gathers its
users' series from the episode's SeriesIndex, which the state builds at the
episode's first set and drops when its last task completes. The index
holds one read-only (g, U, L) matrix for each group of resources whose
profiles cover the same users and share a length; one take of the set's
users' rows gives the group's (g, k, L) stack, whose sum over the users
gives both the summed demand and the competition aggregates. A set
computes both, and each resource's pair sum, when it is built, since the
overuse sampler and the reward read them. numpy adds a stack's users in
the order sum() adds them, so these sums keep the bits of one sum per
resource (see ResidentSet).
run_simulation builds neither sets nor an index. After a run,
scan_overuse and machine_usage_series read the same per-slot resident
demand, built from the trace's residency rows, which equals the stepper's
slot by slot.
"""

from __future__ import annotations

import csv
import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import SimulationError
from .workload import RESOURCES, Task, VmSpec, WorkloadSet

# Event ranks: completions are processed before ready events at equal times so
# successors observe predecessor completions, then ties break on task id.
_COMPLETION = 0
_READY = 1

Assignment = Mapping[int, int]  # task id -> vm id


@dataclass(frozen=True)
class TaskRecord:
    """Final timing of one executed task."""

    task_id: int
    machine_id: int
    arrival: float
    ready_time: float
    start: float
    completion: float
    wait: float
    transfer_time: float
    exec_time: float


@dataclass(frozen=True)
class OveruseEvent:
    machine_id: int
    resource: str
    time: float


@dataclass
class SimTrace:
    """Everything a simulation run produced.

    residency rows are (machine_id, user_id, join_time, completion_time) per
    task, the raw material for slot-level usage scans.
    """

    records: dict[int, TaskRecord] = field(default_factory=dict)
    machine_busy: dict[int, float] = field(default_factory=dict)
    queue_series: list[tuple[float, int]] = field(default_factory=list)
    overuse_events: list[OveruseEvent] = field(default_factory=list)
    residency: list[tuple[int, int, float, float]] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        if not self.records:
            return 0.0
        return max(r.completion for r in self.records.values())


def _service_times(task: Task, spec: VmSpec) -> tuple[float, float]:
    transfer = (task.input_size + task.output_size) / spec.bandwidth
    exec_time = task.length / spec.mips
    return transfer, exec_time


# ---------------------------------------------------------------------------
# State and event core
# ---------------------------------------------------------------------------

@dataclass
class Machine:
    """Runtime state of one machine: FIFO queue plus the in-flight task."""

    spec: VmSpec
    # (task id, transfer + execution time) of each waiting task, in FIFO order
    queue: deque = field(default_factory=deque)
    running: int | None = None
    busy_until: float = 0.0
    busy_total: float = 0.0
    residents: "ResidentSet | None" = None
    # user id -> that user's running and queued tasks here; a key is present
    # only while its count is positive
    user_tasks: dict[int, int] = field(default_factory=dict)
    users_changed: bool = True  # set when a user_tasks key comes or goes
    unfired: tuple[str, ...] = RESOURCES  # resources that have not overshot here

    @property
    def in_use(self) -> bool:
        return self.running is not None or len(self.queue) > 0


class SeriesIndex:
    """One episode's demand series, by resource and user, laid out for the
    gathers that build its resident sets.

    The resources whose series cover the same users and share one length
    form a group: (the group's resources, a read-only (g, U, L) matrix of
    their series, a map from user to row of U). WorkloadSet gives each
    resource's profiles one length, so every resource with series is in
    one group. resources keeps the order in which the series were given,
    which each set's demand dict follows.
    """

    def __init__(self, series: Mapping[str, Mapping[int, np.ndarray]]):
        self.resources = tuple(series)
        shapes: dict[tuple[frozenset[int], int], list[str]] = {}
        for d, by_user in series.items():
            if by_user:
                length = len(next(iter(by_user.values())))
                shapes.setdefault((frozenset(by_user), length), []).append(d)
        self.groups: list[tuple[tuple[str, ...], np.ndarray, dict[int, int]]] = []
        for names in shapes.values():
            users = list(series[names[0]])
            matrix = np.array([[series[d][u] for u in users] for d in names])
            matrix.flags.writeable = False
            self.groups.append((tuple(names), matrix, {u: i for i, u in enumerate(users)}))


class ResidentSet:
    """The demand series of one machine's co-resident users, by resource.

    A machine keeps its set until its resident users change.

    A set is reduced when it is built, with one take per SeriesIndex group:
    the rows of the set's users, in user order, make a C-contiguous
    (g, k, L) stack, and its sum over the users gives each resource's
    totals, the demand per slot that used_at reads. Reducing a stack over
    its middle axis, numpy adds the k rows one after another, slot by slot,
    which is how sum() adds them from np.zeros; whether numpy starts from
    +0.0 or from the first row makes no difference, as UsageProfile stores
    -0.0 as +0.0. So the totals keep their bits. Along one run of
    contiguous values numpy adds pairwise instead, so one-slot series are
    summed by sum() itself. A resource with one series totals that series
    plus 0.0.

    The same sums over the users are the aggregates whose squares give
    each resource's pair sum, and each resource's squares are summed over
    its own k x L block of the stack, as over a stack of its series alone,
    so every pair sum keeps its bits too. Nothing is deferred: the overuse
    sampler reads every set's totals, and a reward with resources reads
    every set's pair sums, so on the learned dispatcher's path each set
    built is read for both. The demand dict of the last slot read and the
    pair sums of each tuple of resources are kept once read; nothing is
    kept across sets.
    """

    def __init__(self, index: SeriesIndex, users: tuple[int, ...]):
        self.users = users
        self._used: tuple[int, dict[str, float]] | None = None
        self._pair_sums_of: dict[tuple[str, ...], tuple[float, ...]] = {}
        # The pair sum of each resource with two or more series in the set.
        self._pair_sums: dict[str, float] = {}
        totals: dict[str, np.ndarray] = {}
        for names, matrix, rows in index.groups:
            take = [rows[u] for u in users if u in rows]
            if not take:
                continue
            stack = matrix.take(take, axis=1)
            if len(take) == 1:
                totals.update(zip(names, stack[:, 0] + 0.0))
                continue
            sums = stack.sum(axis=1)
            squares = (stack * stack).reshape(len(names), -1).sum(axis=1)
            for d, agg, square in zip(names, sums, squares):
                self._pair_sums[d] = (float(agg @ agg) - float(square)) / 2.0
            if stack.shape[2] == 1:
                totals.update((d, sum(rows, np.zeros(1))) for d, rows in zip(names, stack))
            else:
                totals.update(zip(names, sums))
        self.has_series = bool(totals)
        self._totals = {d: totals[d] if d in totals else np.zeros(1) for d in index.resources}

    def used_at(self, slot: int) -> dict[str, float]:
        """Each resource's summed demand at a slot, in user order. The dict
        is kept and handed out again while the slot is the same, so it is
        read-only."""
        if self._used is None or self._used[0] != slot:
            self._used = (slot, {d: float(t[slot % len(t)]) for d, t in self._totals.items()})
        return self._used[1]

    def pair_sums(self, resources: tuple[str, ...]) -> tuple[float, ...]:
        """The pair sum of each of the resources with two or more series, in
        the order given: the sum over unordered pairs of the resource's
        series of their inner products, via the square-of-sum identity."""
        sums = self._pair_sums_of.get(resources)
        if sums is None:
            sums = tuple(self._pair_sums[d] for d in resources if d in self._pair_sums)
            self._pair_sums_of[resources] = sums
        return sums


_NO_RESIDENTS = ResidentSet(SeriesIndex({d: {} for d in RESOURCES}), ())


@dataclass
class SimState:
    """Mutable state of one simulation episode, driven by either driver."""

    workload: WorkloadSet
    tasks: dict[int, Task]
    succs: dict[int, list[int]]
    remaining: dict[int, int]  # task id -> predecessors not yet completed
    events: list[tuple[float, int, int]]
    machines: list[Machine]
    vm_index: dict[int, int]
    clock: float = 0.0
    queued: int = 0  # tasks waiting in machine queues, not running
    # Ready tasks not yet dispatched, in (ready time, id) order.
    ready: list[int] = field(default_factory=list)
    ready_times: dict[int, float] = field(default_factory=dict)
    join_times: dict[int, float] = field(default_factory=dict)
    dispatched: dict[int, int] = field(default_factory=dict)  # task id -> vm id
    starts: dict[int, tuple[float, float, float]] = field(default_factory=dict)
    records: dict[int, TaskRecord] = field(default_factory=dict)
    residency: list[tuple[int, int, float, float]] = field(default_factory=list)
    queue_series: list[tuple[float, int]] = field(default_factory=list)
    overuse_events: list[OveruseEvent] = field(default_factory=list)
    # The profiles' SeriesIndex while resident sets are built; see series_index.
    index: SeriesIndex | None = None

    @property
    def done(self) -> bool:
        return len(self.records) == len(self.tasks)

    def series_index(self) -> SeriesIndex:
        """The index that the episode's resident sets gather from, built at
        the first build. _complete_task drops it with the last task, and a
        later build builds it again."""
        if self.index is None:
            profiles = self.workload.profiles
            self.index = SeriesIndex(
                {d: {p.user_id: p.series for p in profiles if p.resource == d} for d in RESOURCES}
            )
        return self.index

    def waiting_count(self) -> int:
        return len(self.ready) + self.queued

    def trace(self) -> SimTrace:
        events = sorted(
            self.overuse_events, key=lambda e: (e.time, e.machine_id, e.resource)
        )
        return SimTrace(
            records=dict(self.records),
            machine_busy={m.spec.id: m.busy_total for m in self.machines},
            queue_series=list(self.queue_series),
            overuse_events=events,
            residency=list(self.residency),
        )


def _new_state(workload: WorkloadSet) -> SimState:
    """The new state's heap holds the initial READY events."""
    dag = workload.dag
    tasks = {t.id: t for t in dag.tasks}
    remaining = {tid: len(ps) for tid, ps in dag.predecessors().items()}
    events = [(t.arrival_time, _READY, tid) for tid, t in tasks.items() if not remaining[tid]]
    heapq.heapify(events)
    return SimState(
        workload=workload,
        tasks=tasks,
        succs=dag.successors(),
        remaining=remaining,
        events=events,
        machines=[Machine(spec=v) for v in workload.vms],
        vm_index={v.id: i for i, v in enumerate(workload.vms)},
    )


def _join(state: SimState, tid: int, vm_id: int, now: float) -> None:
    """Task tid joins machine vm_id at now: it starts if the machine is idle,
    else it waits at the back of the queue."""
    state.join_times[tid] = now
    state.dispatched[tid] = vm_id
    machine = state.machines[state.vm_index[vm_id]]
    user = state.tasks[tid].user_id
    count = machine.user_tasks.get(user, 0)
    machine.user_tasks[user] = count + 1
    if not count:
        machine.users_changed = True
    if machine.running is None:
        _begin_execution(state, machine, tid, now)
    else:
        transfer, exec_time = _service_times(state.tasks[tid], machine.spec)
        machine.queue.append((tid, transfer + exec_time))
        state.queued += 1


def _begin_execution(state: SimState, machine: Machine, tid: int, now: float) -> None:
    transfer, exec_time = _service_times(state.tasks[tid], machine.spec)
    machine.running = tid
    machine.busy_until = now + transfer + exec_time
    machine.busy_total += transfer + exec_time
    state.starts[tid] = (now, transfer, exec_time)
    heapq.heappush(state.events, (machine.busy_until, _COMPLETION, tid))


def _complete_task(state: SimState, tid: int, now: float) -> None:
    task = state.tasks[tid]
    vm_id = state.dispatched[tid]
    machine = state.machines[state.vm_index[vm_id]]
    start, transfer, exec_time = state.starts[tid]
    ready_time = state.ready_times[tid]
    state.records[tid] = TaskRecord(
        task_id=tid,
        machine_id=vm_id,
        arrival=task.arrival_time,
        ready_time=ready_time,
        start=start,
        completion=now,
        wait=start - ready_time,
        transfer_time=transfer,
        exec_time=exec_time,
    )
    state.residency.append((vm_id, task.user_id, state.join_times[tid], now))
    if len(state.records) == len(state.tasks):
        state.index = None  # free the matrices; a set built after this builds it again
    machine.running = None
    count = machine.user_tasks[task.user_id] - 1
    if count:
        machine.user_tasks[task.user_id] = count
    else:
        del machine.user_tasks[task.user_id]
        machine.users_changed = True
    for succ in state.succs[tid]:
        state.remaining[succ] -= 1
        if state.remaining[succ] == 0:
            ready_at = max(state.tasks[succ].arrival_time, now)
            heapq.heappush(state.events, (ready_at, _READY, succ))
    if machine.queue:
        state.queued -= 1
        _begin_execution(state, machine, machine.queue.popleft()[0], now)


# ---------------------------------------------------------------------------
# Overuse
# ---------------------------------------------------------------------------

def _resident_demand(trace: SimTrace, workload: WorkloadSet) -> dict[int, dict[str, np.ndarray]]:
    """Each machine's summed resident demand per resource and slot, up to
    ceil(makespan). A user counts once at slot s, on a machine where one of
    their tasks has join <= s < completion, however many such tasks they
    have. Users add in ascending id order from 0.0, the order of
    ResidentSet's totals, so each slot equals the stepper's used_at."""
    horizon = int(math.ceil(trace.makespan))
    pmap = workload.profile_map()
    out = {v.id: {d: np.zeros(horizon) for d in RESOURCES} for v in workload.vms}
    spans: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for m, u, t0, t1 in trace.residency:
        spans.setdefault((m, u), []).append((math.ceil(t0), math.ceil(t1)))
    for (m, u), ranges in sorted(spans.items()):
        # Each slot s with t0 <= s < t1 for one of the user's tasks, once.
        mask = np.zeros(horizon, dtype=bool)
        for lo, hi in ranges:
            mask[lo:hi] = True
        slots = np.flatnonzero(mask)
        for d in RESOURCES:
            prof = pmap.get((u, d))
            if prof is not None:
                out[m][d][slots] += prof.series[slots % len(prof.series)]
    return out


def scan_overuse(trace: SimTrace, workload: WorkloadSet) -> list[OveruseEvent]:
    """Post-hoc first-overshoot events: the first slot of each (machine,
    resource) whose resident demand, as machine_usage_series exports it,
    exceeds capacity fraction 1.0."""
    if not workload.profiles or not trace.residency:
        return []
    events = []
    for m, series in _resident_demand(trace, workload).items():
        for d, used in series.items():
            over = np.flatnonzero(used > 1.0)
            if over.size:
                events.append(OveruseEvent(m, d, float(over[0])))
    events.sort(key=lambda e: (e.time, e.machine_id, e.resource))
    return events


def _residents(state: SimState, machine: Machine) -> ResidentSet:
    """The machine's resident set, rebuilt only when its resident users
    changed: _join and _complete_task count each user's tasks on the machine
    and flag it when a count crosses 0 <-> 1. A user who left and came back
    between two reads keeps the set. A machine without resident users gets
    _NO_RESIDENTS without reading the index, and one whose resident users
    have no series gets it in place of the set built for them, so that a
    no-op's slot walk can pass over the machine."""
    if machine.users_changed:
        users = tuple(sorted(machine.user_tasks))
        if machine.residents is None or users != machine.residents.users:
            residents = ResidentSet(state.series_index(), users) if users else _NO_RESIDENTS
            machine.residents = residents if residents.has_series else _NO_RESIDENTS
        machine.users_changed = False
    return machine.residents


def _sample_slot(state: SimState, slot: int) -> list[tuple[int, str]]:
    """Fire each (machine, resource) pair whose summed resident demand first
    exceeds capacity at this slot."""
    if not state.workload.profiles:
        return []
    fresh: list[tuple[int, str]] = []
    for machine in state.machines:
        if not machine.unfired:
            continue
        res = _residents(state, machine)
        if res is _NO_RESIDENTS:
            continue
        used = res.used_at(slot)
        over = [d for d in machine.unfired if used[d] > 1.0]
        if over:
            machine.unfired = tuple(d for d in machine.unfired if d not in over)
            fresh.extend((machine.spec.id, d) for d in over)
    if fresh:
        state.overuse_events.extend(OveruseEvent(m, d, float(slot)) for m, d in fresh)
    return fresh


# ---------------------------------------------------------------------------
# Online stepping
# ---------------------------------------------------------------------------

def init_state(workload: WorkloadSet) -> SimState:
    """Build the initial online state; tasks ready at t=0 are already visible."""
    state = _new_state(workload)
    _absorb_events(state, 0.0)
    return state


def _absorb_events(state: SimState, now: float) -> None:
    # Move every event stamped <= now into the live state. The heap pops in
    # key order and every new ready time is >= the clock, so `ready` stays
    # in (ready time, id) order without sorting.
    while state.events and state.events[0][0] <= now:
        t, kind, tid = heapq.heappop(state.events)
        if kind == _READY:
            state.ready_times[tid] = t
            state.ready.append(tid)
        else:
            _complete_task(state, tid, t)


def step(state: SimState, action: tuple[int, int] | None) -> list[tuple[int, str]]:
    """Apply one scheduling decision to the state, in place; returns the
    (machine, resource) pairs that first overshot during it.

    action is (task_id, machine_id) to dispatch a ready task, or None for a
    no-op. Dispatching leaves the clock unchanged; a no-op advances the clock
    to the next event (or one slot if none is scheduled) and processes it,
    and changes nothing once every task is done. rewards.total_reward scores
    the step from the state and the returned pairs.
    """
    if action is not None:
        tid, vm_id = action
        if tid not in state.ready_times or tid in state.dispatched:
            raise SimulationError(f"task {tid} is not ready for dispatch")
        if vm_id not in state.vm_index:
            raise SimulationError(f"unknown machine id {vm_id}")
        state.ready.remove(tid)
        _join(state, tid, vm_id, state.clock)
        if state.clock == math.floor(state.clock):
            return _sample_slot(state, int(state.clock))
        return []

    # No-op: a finished episode stays as it is; otherwise sample the settled
    # queue, then advance.
    if state.done:
        return []
    state.queue_series.append((state.clock, state.waiting_count()))
    fresh: list[tuple[int, str]] = []
    target = state.events[0][0] if state.events else state.clock + 1.0
    # Visit integer slots crossed strictly before the target instant. No
    # event falls before the target, so the residents stay as they are; if
    # no machine has both a resident and an unfired resource, no slot in
    # between can fire and the walk is skipped.
    s = math.floor(state.clock) + 1
    if s < target and state.workload.profiles and any(
        machine.unfired and _residents(state, machine) is not _NO_RESIDENTS
        for machine in state.machines
    ):
        while s < target:
            fresh.extend(_sample_slot(state, int(s)))
            s += 1
    state.clock = target
    _absorb_events(state, target)
    if target == math.floor(target):
        fresh.extend(_sample_slot(state, int(target)))
    return fresh


# ---------------------------------------------------------------------------
# Static-assignment drivers
# ---------------------------------------------------------------------------

def _check_assignment(state: SimState, assignment: Assignment) -> None:
    missing = sorted(t for t in state.tasks if t not in assignment)
    if missing:
        raise SimulationError(f"assignment missing tasks: {missing}")
    bad_vms = sorted({assignment[t] for t in state.tasks} - set(state.vm_index))
    if bad_vms:
        raise SimulationError(f"assignment names unknown machines: {bad_vms}")


def run_simulation(workload: WorkloadSet, assignment: Assignment) -> SimTrace:
    """Simulate a static assignment to completion and return the trace."""
    state = _new_state(workload)
    _check_assignment(state, assignment)
    events = state.events
    while events:
        now, kind, tid = heapq.heappop(events)
        if kind == _READY:
            state.ready_times[tid] = now
            _join(state, tid, assignment[tid], now)
        else:
            _complete_task(state, tid, now)
        # Sample the queue length once all activity at this instant settled.
        if not events or events[0][0] > now:
            state.queue_series.append((now, state.queued))
    trace = state.trace()
    trace.overuse_events = scan_overuse(trace, workload)
    return trace


def replay_assignment(workload: WorkloadSet, assignment: Assignment) -> SimTrace:
    """Drive the online stepper with a static assignment; used as the
    cross-check twin of run_simulation."""
    state = init_state(workload)
    _check_assignment(state, assignment)
    guard = 0
    limit = 10 * len(state.tasks) + 100
    while not state.done:
        if state.ready:
            tid = state.ready[0]
            step(state, (tid, assignment[tid]))
        else:
            step(state, None)
        guard += 1
        if guard > limit and not state.events and not state.ready:
            raise SimulationError("replay stalled")  # pragma: no cover
    # Final settled sample to mirror run_simulation's last batch.
    state.queue_series.append((state.clock, state.waiting_count()))
    return state.trace()


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------

TASK_CSV_COLUMNS = ("task_id", "machine_id", "arrival", "start", "completion", "wait")
USAGE_CSV_COLUMNS = ("machine_id", "slot", "resource", "used")


def write_task_csv(trace: SimTrace, path: str) -> None:
    """tasks CSV: one row per task, columns fixed by TASK_CSV_COLUMNS."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TASK_CSV_COLUMNS)
        for tid in sorted(trace.records):
            r = trace.records[tid]
            writer.writerow(
                [r.task_id, r.machine_id, repr(r.arrival), repr(r.start),
                 repr(r.completion), repr(r.wait)]
            )


def machine_usage_series(
    trace: SimTrace, workload: WorkloadSet
) -> dict[int, dict[str, np.ndarray]]:
    """Per-machine slot series: busy fraction plus, when the workload has
    profiles, the summed demand of the users resident at each slot."""
    horizon = int(math.ceil(trace.makespan))
    out: dict[int, dict[str, np.ndarray]] = {
        v.id: {"busy": np.zeros(horizon)} for v in workload.vms
    }
    # Each record adds its slice in row order, so every element sees the
    # same sequence of adds as a slot-by-slot loop.
    for r in trace.records.values():
        slots = np.arange(math.floor(r.start), min(horizon, math.ceil(r.completion)))
        overlap = np.minimum(r.completion, slots + 1) - np.maximum(r.start, slots)
        out[r.machine_id]["busy"][slots[overlap > 0]] += overlap[overlap > 0]
    if workload.profiles:
        for m, series in _resident_demand(trace, workload).items():
            out[m].update(series)
    return out


def write_usage_csv(trace: SimTrace, workload: WorkloadSet, path: str) -> None:
    """machine usage CSV, columns fixed by USAGE_CSV_COLUMNS."""
    series = machine_usage_series(trace, workload)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(USAGE_CSV_COLUMNS)
        for m in sorted(series):
            for d in sorted(series[m]):
                arr = series[m][d]
                for s in range(len(arr)):
                    writer.writerow([m, s, d, repr(float(arr[s]))])
