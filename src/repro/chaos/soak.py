"""Timed soak lane: minutes of overload, churn, corruption, and starvation.

``python -m repro.chaos.soak --duration 120 --seed 7`` drives the
in-process serving stack (forked worker replicas, real engines, real
admission and metrics) with open-loop overload for the requested wall
time while a seeded :class:`~repro.chaos.schedule.ChaosSchedule`
continuously SIGKILLs replicas, corrupts the telemetry spool, skews the
perturber clock, and squeezes the spool's disk budget down to nothing
(and back).  ``--network-faults`` additionally runs a real HTTP front-end
and lets a :class:`~repro.chaos.actors.NetworkMangler` park slow-loris,
half-open, and byte-drip connections against it.  After the storm every
fault lifts and a fault-free recovery probe must succeed within its
bound.

``--long`` turns on the trend profile: RSS and spool-directory bytes are
sampled throughout and the verdict asserts both stayed bounded -- the
leak class (fd / memory / unbounded spool growth) that only shows up
over minutes.  ``scripts/check.sh --soak-long`` is the entry point.

The verdict is the invariant summary: exactly-once response accounting
(deadline expiries included) across the whole run, a follower that
survived every corrupt line (and counted them), writers that degraded
with counters -- never silently -- while the disk was squeezed, a
connection cap that never leaked, replicas that respawned (or degraded
explicitly within budget), and post-fault recovery.  Exit status 0 iff
every invariant held; the JSON summary goes to stdout (and ``--out``
when given) and includes per-class fault counters.

Everything is derived from ``--seed``, so a red soak reproduces by
re-running with the seed it printed.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import threading
import time

from repro.chaos.actors import (
    ClockPerturber,
    DiskFiller,
    NetworkMangler,
    ProcessReaper,
    SpoolCorruptor,
)
from repro.chaos.drive import HttpStack, ServingStack, drive_open_loop
from repro.chaos.invariants import InvariantChecker, ResponseLedger
from repro.chaos.schedule import ChaosSchedule
from repro.serve.server import ServeConfig
from repro.telemetry import bus as telemetry_bus
from repro.telemetry.bus import SpoolFollower
from repro.utils.diskbudget import DiskBudget, directory_bytes


def _rss_kb() -> int:
    """This process's resident set size in KiB (0 when unreadable)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


class _TrendSampler(threading.Thread):
    """Periodic RSS + spool-size samples for the ``--long`` trend verdict."""

    def __init__(self, spool_dir: str, period_s: float = 2.0):
        super().__init__(name="soak-trend-sampler", daemon=True)
        self.spool_dir = spool_dir
        self.period_s = float(period_s)
        self.samples: list[dict] = []
        self._halt = threading.Event()

    def run(self) -> None:
        started = time.monotonic()
        while not self._halt.is_set():
            self.samples.append(
                {
                    "t_s": time.monotonic() - started,
                    "rss_kb": _rss_kb(),
                    "spool_bytes": directory_bytes(self.spool_dir),
                }
            )
            self._halt.wait(self.period_s)

    def stop(self) -> None:
        self._halt.set()

    def verdict(self, spool_budget_bytes: int) -> dict:
        """Trend numbers plus pass/fail per bound (checked by the caller).

        RSS must not keep climbing: the mean of the last quarter of
        samples is allowed 25% + 128 MiB over the first quarter (engines
        are warm before sampling starts, so steady state is the
        expectation).  The spool must respect its byte budget (plus one
        rescan interval of slack for writes admitted between rescans).
        """
        samples = list(self.samples)
        quarter = max(1, len(samples) // 4)
        head = samples[:quarter]
        tail = samples[-quarter:]
        head_rss = sum(s["rss_kb"] for s in head) / len(head)
        tail_rss = sum(s["rss_kb"] for s in tail) / len(tail)
        max_spool = max((s["spool_bytes"] for s in samples), default=0)
        rss_bound_kb = head_rss * 1.25 + 128 * 1024
        spool_bound = spool_budget_bytes + 1024 * 1024
        return {
            "samples": len(samples),
            "head_rss_kb": head_rss,
            "tail_rss_kb": tail_rss,
            "rss_bound_kb": rss_bound_kb,
            "rss_ok": len(samples) < 8 or tail_rss <= rss_bound_kb,
            "max_spool_bytes": max_spool,
            "spool_bound_bytes": spool_bound,
            "spool_ok": max_spool <= spool_bound,
            "enough_samples": len(samples) >= 8,
        }


def run_soak(
    duration_s: float = 60.0,
    seed: int = 0,
    model: str = "resnet18",
    scale: str = "fast",
    fork_workers: int = 2,
    rate: float | None = None,
    kill_period_s: float = 5.0,
    corrupt_period_s: float = 2.0,
    budget_s: float = 2.0,
    recovery_bound_s: float = 30.0,
    disk_faults: bool = True,
    network_faults: bool = False,
    deadline_ms: float | None = None,
    spool_budget_bytes: int = 8 * 1024 * 1024,
    long_profile: bool = False,
) -> dict:
    """One seeded soak run; returns the JSON-able summary."""
    rng = random.Random(seed)
    reaper = ProcessReaper(random.Random(rng.randrange(2**31)))
    corruptor = SpoolCorruptor(random.Random(rng.randrange(2**31)))
    perturber = ClockPerturber(random.Random(rng.randrange(2**31)))
    filler = DiskFiller(random.Random(rng.randrange(2**31)))
    mangler_rng = random.Random(rng.randrange(2**31))

    spool_dir = tempfile.mkdtemp(prefix="repro-chaos-soak-")
    spool_budget = DiskBudget(
        spool_dir, spool_budget_bytes, name="soak-spool"
    )
    bus = telemetry_bus.get_bus()
    bus.attach_spool(spool_dir, role="soak", budget=spool_budget)
    follower = SpoolFollower(spool_dir)
    ledger = ResponseLedger()
    checker = InvariantChecker()
    started = time.monotonic()

    stack = ServingStack(
        model=model,
        config=ServeConfig(scale=scale, fork_workers=fork_workers),
        runner_wrap=perturber.wrap_runner,
    )
    http_stack = None
    mangler = None
    sampler = None
    network_summary = None
    trend = None
    try:
        if network_faults:
            http_stack = HttpStack(model=model, config=ServeConfig(scale=scale))
            mangler = NetworkMangler(
                http_stack.host, http_stack.port, rng=mangler_rng
            )
        if long_profile:
            sampler = _TrendSampler(spool_dir)
            sampler.start()

        # Overload: twice the rough measured capacity unless given.
        if rate is None:
            probe = drive_open_loop(
                stack, rate=50.0, duration=1.0, budget_s=budget_s,
                ledger=ledger,
            )
            rate = max(10.0, 2.0 * probe["throughput_images_per_s"])

        schedule = ChaosSchedule(seed=seed)
        schedule.every(
            kill_period_s, "reap-replica",
            lambda: reaper.reap(stack.replica_pids()),
            until_s=duration_s, jitter_s=kill_period_s / 2,
        )
        schedule.every(
            corrupt_period_s, "corrupt-spool",
            lambda: corruptor.corrupt_spool(spool_dir),
            until_s=duration_s, jitter_s=corrupt_period_s / 2,
        )
        schedule.every(
            max(0.5, corrupt_period_s), "perturb-clock",
            perturber.perturb,
            until_s=duration_s, jitter_s=0.25,
        )
        if disk_faults:
            # Alternate squeeze / restore so the spool sees both the
            # fault and the lift repeatedly over the run.
            squeezed = {"on": False}

            def disk_fault_tick():
                if squeezed["on"]:
                    squeezed["on"] = False
                    return f"restored {filler.restore()}"
                squeezed["on"] = True
                return f"squeezed to {filler.squeeze(spool_budget)}"

            schedule.every(
                max(2.0, corrupt_period_s * 2), "squeeze-disk",
                disk_fault_tick,
                until_s=duration_s, jitter_s=0.5,
            )
        if mangler is not None:
            schedule.every(
                3.0, "mangle-network", mangler.inject,
                until_s=duration_s, jitter_s=1.0,
            )
        chaos_thread = schedule.run_in_thread(until_s=duration_s)

        drive = drive_open_loop(
            stack, rate=rate, duration=duration_s, budget_s=budget_s,
            ledger=ledger, deadline_ms=deadline_ms,
        )
        schedule.stop()
        chaos_thread.join(timeout=30.0)

        # Every fault lifts before the recovery phase.
        filler.restore()
        released = mangler.release_all() if mangler is not None else 0

        # The follower must still be consuming events -- and accounting
        # for every corrupt line the schedule injected.
        follower.poll()
        follower_stats = follower.stats()
        spool_stats = bus.spool_stats() or {}

        # Fault-free recovery probes: the stack must serve again.
        recovery_started = time.monotonic()
        recovery = drive_open_loop(
            stack, rate=min(rate, 20.0), duration=2.0, budget_s=budget_s,
            ledger=ledger,
        )
        recovery_elapsed = time.monotonic() - recovery_started

        health = stack.replica_health()
        checker.check_ledger(ledger)
        checker.check(
            "served_under_churn",
            drive["completed"] > 0,
            f"completed {drive['completed']} of {drive['offered']} offered",
        )
        checker.check(
            "follower_survived_corruption",
            len(corruptor.corrupted) == 0
            or follower_stats["corrupt_lines"] > 0
            or all(mode == "tear" for _p, mode in corruptor.corrupted),
            f"{len(corruptor.corrupted)} corruptions injected, "
            f"follower counted {follower_stats['corrupt_lines']}",
        )
        checker.check(
            "replicas_respawned_or_failed_explicitly",
            health["live_replicas"] > 0 or health["failed_replicas"] > 0,
            repr(health),
        )
        if disk_faults and filler.squeezed:
            # The squeeze must have produced *counted* degradation, never
            # an exception or a silent loss: the spool keeps a tally.
            checker.check(
                "spool_degraded_with_counters",
                spool_stats.get("dropped_events", 0) > 0,
                f"{len(filler.squeezed)} squeezes, spool stats "
                f"{spool_stats}",
            )
        if mangler is not None:
            http_started = time.monotonic()
            probe_image = stack.images[0:1]
            http_ok = 0
            http_probes = 5
            for _ in range(http_probes):
                try:
                    status, _payload = http_stack.probe(model, probe_image)
                except OSError:
                    status = 0
                http_ok += 1 if status == 200 else 0
            http_elapsed = time.monotonic() - http_started
            stats = http_stack.connection_stats()
            network_summary = {
                "mangled": [list(entry) for entry in mangler.mangled],
                "released": released,
                "connections": stats,
                "probes_ok": http_ok,
                "probes": http_probes,
            }
            checker.check(
                "connection_cap_never_leaked",
                stats["open"] <= stats["max"],
                f"open {stats['open']} of max {stats['max']}",
            )
            checker.check_recovered(
                http_ok, http_probes, recovery_bound_s, http_elapsed,
                name="http_recovery",
            )
        checker.check_recovered(
            recovery["completed"],
            recovery["admitted"],
            recovery_bound_s,
            recovery_elapsed,
        )
        if sampler is not None:
            sampler.stop()
            sampler.join(timeout=10.0)
            trend = sampler.verdict(spool_budget_bytes)
            checker.check(
                "rss_trend_bounded",
                trend["rss_ok"],
                f"head {trend['head_rss_kb']:.0f} KiB -> tail "
                f"{trend['tail_rss_kb']:.0f} KiB "
                f"(bound {trend['rss_bound_kb']:.0f} KiB, "
                f"{trend['samples']} samples)",
            )
            checker.check(
                "spool_growth_bounded",
                trend["spool_ok"],
                f"max {trend['max_spool_bytes']} bytes "
                f"(bound {trend['spool_bound_bytes']})",
            )
    finally:
        if sampler is not None:
            sampler.stop()
        filler.restore()
        if mangler is not None:
            mangler.release_all()
        if http_stack is not None:
            http_stack.close()
        stack.close()
        bus.detach_spool()
        shutil.rmtree(spool_dir, ignore_errors=True)
        from repro.eval.experiments.common import clear_harness_cache

        clear_harness_cache()

    return {
        "soak": {
            "seed": seed,
            "duration_s": duration_s,
            "rate_images_per_s": rate,
            "deadline_ms": deadline_ms,
            "elapsed_s": time.monotonic() - started,
            "drive": drive,
            "recovery": recovery,
            "ledger": ledger.counts(),
            "replica_health": health,
            "spool": follower_stats,
            "faults": {
                "killed_pids": reaper.killed,
                "corruptions": [
                    {"path": path, "mode": mode}
                    for path, mode in corruptor.corrupted
                ],
                "disk": {
                    "enabled": disk_faults,
                    "squeezes": [
                        {"budget": name, "to_bytes": to_bytes}
                        for name, to_bytes in filler.squeezed
                    ],
                    "spool_stats": spool_stats,
                },
                "network": {
                    "enabled": network_faults,
                    **(network_summary or {}),
                },
                "schedule": schedule.describe(),
            },
            "trend": trend,
            "invariants": checker.summary(),
        }
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="soak the NB-SMT serving stack under seeded chaos"
    )
    parser.add_argument("--duration", type=float, default=60.0,
                        help="soak wall time in seconds (default 60)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--model", default="resnet18")
    parser.add_argument("--scale", default="fast", choices=["fast", "paper"])
    parser.add_argument("--fork-workers", type=int, default=2)
    parser.add_argument("--rate", type=float, default=None,
                        help="offered images/s (default: 2x measured)")
    parser.add_argument("--kill-period", type=float, default=5.0)
    parser.add_argument("--corrupt-period", type=float, default=2.0)
    parser.add_argument("--budget", type=float, default=2.0,
                        help="per-request latency budget in seconds")
    parser.add_argument("--deadline-ms", type=float, default=None,
                        help="attach this deadline to every driven request")
    parser.add_argument("--no-disk-faults", action="store_true",
                        help="skip the disk-budget squeeze phases")
    parser.add_argument("--network-faults", action="store_true",
                        help="also run an HTTP front-end and mangle its "
                             "connections (slow-loris, half-open, drip)")
    parser.add_argument("--spool-budget-mb", type=float, default=8.0,
                        help="telemetry spool disk budget in MiB")
    parser.add_argument("--long", action="store_true",
                        help="trend profile: sample RSS and spool growth "
                             "and assert both stay bounded; implies "
                             "--network-faults")
    parser.add_argument("--out", default=None,
                        help="also write the JSON summary to this path")
    args = parser.parse_args(argv)

    summary = run_soak(
        duration_s=args.duration,
        seed=args.seed,
        model=args.model,
        scale=args.scale,
        fork_workers=args.fork_workers,
        rate=args.rate,
        kill_period_s=args.kill_period,
        corrupt_period_s=args.corrupt_period,
        budget_s=args.budget,
        disk_faults=not args.no_disk_faults,
        network_faults=args.network_faults or args.long,
        deadline_ms=args.deadline_ms,
        spool_budget_bytes=int(args.spool_budget_mb * 1024 * 1024),
        long_profile=args.long,
    )
    print(json.dumps(summary, indent=2, default=str))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=2, default=str)
    verdict = summary["soak"]["invariants"]
    print(
        f"soak[seed={args.seed}]: "
        + ("PASS" if verdict["ok"] else "FAIL")
        + f" ({verdict['checked']} invariants, {verdict['failed']} failed)",
        file=sys.stderr,
    )
    return 0 if verdict["ok"] else 1


if __name__ == "__main__":  # pragma: no cover - CLI entry
    raise SystemExit(main())
