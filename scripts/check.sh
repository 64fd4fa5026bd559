#!/usr/bin/env bash
# Tier-1 repo check: byte-compile the package, print the .py line count of
# src/ + benchmarks/, and run the fast test profile.
#
# Usage: scripts/check.sh [--all|--serve|--telemetry|--alerts|--trace|--cluster|--chaos|--soak|--soak-long]
#                         [extra args...]
# Examples:
#   scripts/check.sh                 # compileall + fast tier-1 tests
#   scripts/check.sh --all           # pre-merge gate: compileall, then every
#                                    # pytest lane in turn (tier-1, slow,
#                                    # serve, chaos, cluster, trace), with
#                                    # the wall time of each; exits non-zero
#                                    # at the first failing lane (extra args
#                                    # go to every lane; the timed soak runs
#                                    # stay separate)
#   scripts/check.sh --serve         # compileall + the opt-in serve lane
#                                    # (HTTP e2e, sharding, adaptive QoS)
#   scripts/check.sh --telemetry     # compileall + every telemetry test
#                                    # (bus/timeline/coordinator tier-1
#                                    # plus the SSE/dashboard e2e)
#   scripts/check.sh --alerts        # compileall + the alert suite (unit,
#                                    # stateful lifecycle properties, and
#                                    # the chaos degradation contract)
#   scripts/check.sh --trace         # compileall + the tracing suite
#                                    # (tracer units, span-tree properties,
#                                    # HTTP/cluster propagation e2e, and
#                                    # the chaos trace-survives-kill test)
#   scripts/check.sh --cluster       # compileall + every cluster test
#                                    # (documents/membership/ledger/socket
#                                    # tier-1 plus the two-process CLI
#                                    # worker demo over localhost sockets)
#   scripts/check.sh --chaos         # compileall + the fault-injection
#                                    # conformance suite (kills, corruption,
#                                    # frozen peers; deterministic seeds)
#   scripts/check.sh --soak          # timed soak: full stack under churn
#                                    # (extra args go to repro.chaos.soak,
#                                    # e.g. --soak --duration 300)
#   scripts/check.sh --soak-long     # soak with the trend profile: RSS and
#                                    # spool growth sampled and asserted
#                                    # bounded, network+disk faults on
#   scripts/check.sh -m slow         # compileall + the slow lane
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== compileall =="
python -m compileall -q src benchmarks perfbench
# The tracked simplicity number: net .py lines of src/ + benchmarks/.
echo "== .py lines in src/ + benchmarks/: $(find src benchmarks -name '*.py' -exec cat {} + | wc -l | tr -d ' ') =="

echo "== pytest =="
# (No intermediate array: expanding an empty array under `set -u` breaks
# on bash < 4.4, e.g. macOS's default bash 3.2.)
if [[ "${1:-}" == "--all" ]]; then
    shift
    lane() {
        local name="$1" started=$SECONDS
        shift
        echo "== lane: $name =="
        if python -m pytest -x -q "$@"; then
            echo "== lane $name passed in $((SECONDS - started)) s =="
        else
            echo "== lane $name FAILED after $((SECONDS - started)) s =="
            exit 1
        fi
    }
    lane tier-1 "$@"
    lane slow -m slow "$@"
    lane serve -m serve "$@"
    lane chaos -m chaos "$@"
    lane cluster -m cluster "$@"
    lane trace -m trace "$@"
elif [[ "${1:-}" == "--serve" ]]; then
    shift
    python -m pytest -x -q -m serve "$@"
elif [[ "${1:-}" == "--telemetry" ]]; then
    shift
    # The whole telemetry suite, serve-marked SSE/dashboard e2e included,
    # plus the serving-side telemetry integration tests.
    python -m pytest -x -q -m "" tests/telemetry \
        tests/serve/test_telemetry_serve.py "$@"
elif [[ "${1:-}" == "--alerts" ]]; then
    shift
    # Alert engine end to end: rule/sink/history unit tests, the stateful
    # lifecycle machine, and the chaos-lane degradation contract (alert
    # fires during an injected replica kill, resolves after recovery).
    python -m pytest -x -q -m "" \
        tests/telemetry/test_alerts.py \
        tests/telemetry/test_alerts_stateful.py \
        tests/chaos/test_chaos_alerts.py "$@"
elif [[ "${1:-}" == "--trace" ]]; then
    shift
    # Everything trace-marked: sampling/exemplar units, Hypothesis
    # span-tree well-formedness under concurrent batching, the HTTP
    # front-door waterfall, cluster trace propagation, and the chaos
    # trace-survives-replica-kill contract.
    python -m pytest -x -q -m trace "$@"
elif [[ "${1:-}" == "--cluster" ]]; then
    shift
    # The whole cluster suite: the socket-free tier-1 tests plus the
    # cluster-marked two-process demo (a real `repro.cli worker` child
    # leasing sweep points over localhost sockets).
    python -m pytest -x -q -m "" tests/cluster "$@"
elif [[ "${1:-}" == "--chaos" ]]; then
    shift
    python -m pytest -x -q -m chaos "$@"
elif [[ "${1:-}" == "--soak" ]]; then
    shift
    python -m repro.chaos.soak "$@"
elif [[ "${1:-}" == "--soak-long" ]]; then
    shift
    python -m repro.chaos.soak --long "$@"
else
    python -m pytest -x -q "$@"
fi
