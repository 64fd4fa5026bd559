"""Summarize and compare the records ``run.py`` saves in ``.perfbench/results``.

Usage::

    python3 perfbench/compare.py [RESULTS_DIR]            # one set of runs
    python3 perfbench/compare.py BASE_DIR CHANGED_DIR     # two sets of runs

For one set: per workload and end-to-end metric, the median over the
untraced runs and the spread (interquartile range as a share of the
median), then the tracing overhead: the traced runs' median minus the
untraced runs' median.  For two sets: each metric's medians side by side
with the relative change.  A comparison of runs made with different CPU
counts, BLAS settings or library versions is labelled as such, since those
move every timing.  Each heading gives the runs' median CPU steal share: on
a shared 2-CPU host a few percent of steal moved serve-http's p90 by a
third, so sets measured under different steal are not like for like either.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import benchlib
from run import END_TO_END


def load(directory: Path) -> dict[tuple[str, int], list[dict]]:
    groups: dict[tuple[str, int], list[dict]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        groups.setdefault((record["workload"], record["trace"]), []).append(record)
    return groups


def values(records: list[dict], name: str) -> list[float]:
    key = "layers" if records[0]["trace"] else "metrics"
    prefix = "traced." if records[0]["trace"] else ""
    return [r[key][prefix + name] for r in records]


def spread(data: list[float]) -> float:
    if len(data) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(data, n=4)
    centre = statistics.median(data)
    return (q3 - q1) / centre if centre else 0.0


def environments(records: list[dict]) -> set[str]:
    keys = ("nproc", "blas", "blas_threads", "numpy", "python")
    return {
        json.dumps({k: r["environment"][k] for k in keys}, sort_keys=True)
        for r in records
    }


def steal(records: list[dict]) -> float:
    """Median share of CPU time the hypervisor gave to other guests."""
    return statistics.median(r["details"]["cpu_steal_share"] for r in records)


def summarize(groups) -> None:
    workloads = sorted({workload for workload, _ in groups})
    for workload in workloads:
        plain, traced = groups.get((workload, 0), []), groups.get((workload, 1), [])
        print(f"== {workload}: {len(plain)} untraced, {len(traced)} traced runs"
              f" (median CPU steal {steal(plain + traced):.1%})")
        if len(environments(plain + traced)) > 1:
            print("  [runs made in different environments: "
                  f"{sorted(environments(plain + traced))}]")
        for name, unit in END_TO_END.items():
            line = f"  {name:18s}"
            if plain:
                data = values(plain, name)
                line += (f" median {statistics.median(data):12.5g} {unit:8s}"
                         f" spread {spread(data):7.2%}")
            if plain and traced:
                base = statistics.median(values(plain, name))
                overhead = statistics.median(values(traced, name)) - base
                relative = overhead / base if base else float("nan")
                line += f"  tracing overhead {overhead:+.5g} ({relative:+.1%})"
            print(line)


def compare(base_groups, changed_groups) -> None:
    for key in sorted(set(base_groups) & set(changed_groups)):
        workload, trace = key
        if trace:
            continue
        base, changed = base_groups[key], changed_groups[key]
        print(f"== {workload}: {len(base)} base runs, {len(changed)} changed runs"
              f" (median CPU steal {steal(base):.1%} vs {steal(changed):.1%})")
        base_env, changed_env = environments(base), environments(changed)
        if base_env != changed_env:
            nprocs = ({r["environment"]["nproc"] for r in base},
                      {r["environment"]["nproc"] for r in changed})
            label = ("different CPU counts " f"{sorted(nprocs[0])} vs {sorted(nprocs[1])}"
                     if nprocs[0] != nprocs[1] else "different environments")
            print(f"  [NOT LIKE FOR LIKE: {label}]")
        for name, unit in END_TO_END.items():
            a = statistics.median(values(base, name))
            b = statistics.median(values(changed, name))
            change = (b - a) / a if a else float("nan")
            print(f"  {name:18s} {a:12.5g} -> {b:12.5g} {unit:8s} ({change:+.1%})")


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    directories = [Path(a) for a in argv] or [benchlib.RESULTS]
    groups = [load(d) for d in directories]
    if len(groups) == 1:
        summarize(groups[0])
    else:
        compare(*groups)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
