"""Output checks on simulation traces, and the digest of result rows."""

from __future__ import annotations

import hashlib
from collections import defaultdict


def trace_violations(trace, workload, assignment=None, complete=True) -> list[str]:
    """Invariants every trace must hold; returns a list of violations.

    - each task appears once (at most once when `complete` is false, for an
      episode stopped at its step cap)
    - no two tasks overlap on one machine
    - start >= join >= ready_time >= arrival, with the join time taken from
      the residency row of the same (machine, completion)
    - each machine serves its tasks in the order they joined
    - precedence edges hold, and a static assignment is followed
    """
    problems: list[str] = []
    tasks = {t.id: t for t in workload.dag.tasks}
    vm_ids = {v.id for v in workload.vms}
    records = trace.records
    if (
        not set(records) <= set(tasks)
        or len(trace.residency) != len(records)
        or (complete and len(records) != len(tasks))
    ):
        problems.append(
            f"{len(records)} records and {len(trace.residency)} residency rows "
            f"for {len(tasks)} tasks"
        )
        return problems
    joins = {}
    for machine, _user, join, completion in trace.residency:
        key = (machine, completion)
        if key in joins:
            problems.append(f"machine {machine}: two tasks complete at {completion!r}")
        joins[key] = join
    by_machine = defaultdict(list)
    for tid, r in records.items():
        if r.task_id != tid or r.machine_id not in vm_ids:
            problems.append(f"task {tid}: bad record identity")
            continue
        if assignment is not None and assignment[tid] != r.machine_id:
            problems.append(f"task {tid}: ran on {r.machine_id}, assigned {assignment[tid]}")
        join = joins.get((r.machine_id, r.completion))
        if join is None:
            problems.append(f"task {tid}: no residency row")
            continue
        if not (r.start >= join >= r.ready_time >= r.arrival == tasks[tid].arrival_time):
            problems.append(f"task {tid}: start/join/ready/arrival out of order")
        if not r.completion > r.start:
            problems.append(f"task {tid}: completes before it starts")
        by_machine[r.machine_id].append((r.start, join, r.completion, tid))
    for machine, rows in by_machine.items():
        rows.sort()
        for prev, cur in zip(rows, rows[1:]):
            if cur[0] < prev[2]:
                problems.append(f"machine {machine}: tasks {prev[3]} and {cur[3]} overlap")
            if cur[1] < prev[1]:
                problems.append(f"machine {machine}: task {cur[3]} served before earlier joiner {prev[3]}")
    for a, b in workload.dag.edges:
        if b in records and (a not in records or records[b].start < records[a].completion):
            problems.append(f"edge {a}->{b}: successor starts before predecessor ends")
    return problems


def digest(lines) -> str:
    """sha256 over result rows rendered one per line."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()
