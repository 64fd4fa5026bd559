"""Helpers shared by the benchmark's orchestrator and its child processes.

Everything here imports only the standard library at module load (numpy
is loaded inside the functions that need it), so the orchestrator can
import it before it knows whether the checkout holds a usable
``src/repro`` tree.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything a run writes lives here (git-ignored): the checkpoint cache,
#: per-run result records and trace spans.
WORK = ROOT / ".perfbench"
CACHE = WORK / "cache"
RESULTS = WORK / "results"
SPANS = WORK / "spans"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

#: The zoo models the workloads use; both are trained once, untimed, into
#: the benchmark's own checkpoint cache.
MODELS = ("resnet18", "alexnet")


def repo_ok() -> bool:
    """Whether the checkout holds the program the benchmark drives."""
    return (SRC / "repro" / "cli.py").is_file()


def child_env(blas_threads: int | None = None) -> dict[str, str]:
    """Environment of a child process: the checkout's sources and cache.

    ``blas_threads`` pins OpenBLAS (and any OpenMP/MKL build) to that many
    threads; ``None`` keeps the library default.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(CACHE)
    # Keep any temporary file the program makes inside the checkout.
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(WORK / "tmp")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if blas_threads is None:
            env.pop(name, None)
        else:
            env[name] = str(blas_threads)
    return env


def guard_training() -> None:
    """Make the zoo refuse to train: a timed run must find its checkpoint.

    ``load_trained_model`` trains only on a cache miss; replacing the zoo's
    trainer turns that miss into an error instead of minutes of training
    hidden inside the set-up time.
    """
    import repro.models.zoo as zoo

    class _NoTraining:
        def __init__(self, *args, **kwargs):
            raise RuntimeError(
                "no cached checkpoint in the benchmark cache; the untimed "
                "preparation step should have trained it"
            )

    zoo.Trainer = _NoTraining


def quantile(values: list[float], q: float) -> float:
    """Inclusive linear-interpolation quantile (``q`` in [0, 1])."""
    data = sorted(values)
    if not data:
        raise ValueError("quantile of no values")
    if len(data) == 1:
        return float(data[0])
    position = q * (len(data) - 1)
    low = int(position)
    high = min(low + 1, len(data) - 1)
    return float(data[low] + (data[high] - data[low]) * (position - low))


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use (``None`` if not found)."""
    import ctypes

    import numpy  # noqa: F401 - loads the BLAS library into the process

    with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
        libraries = {
            match.group(1)
            for line in maps
            if (match := re.search(r"(/\S*openblas\S*\.so\S*)", line))
        }
    for library in sorted(libraries):
        handle = ctypes.CDLL(library)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


#: CPU seconds one ``reference_cpu_s()`` sample took on a quiet 2-CPU
#: x86-64 VM (scipy-openblas 0.3.31, numpy 2.4.6, python 3.11.7).  Times
#: are reported at this reference speed (see ``at_reference_speed``).
REFERENCE_NOMINAL_S = 0.137

#: Rounds of reference work in one sample (see ``reference_cpu_s``).
REFERENCE_ROUNDS = 4

_REFERENCE_DATA: list = []


def reference_cpu_s() -> float:
    """CPU seconds this thread spends on a fixed piece of reference work.

    The work mixes what an NB-SMT pass and a served request spend their
    time on: a float32 BLAS GEMM, int16 masks, table look-ups and
    reductions, and Python bytecode.  It runs in the calling thread (the
    callers pin BLAS to one thread) and is timed on that thread's CPU
    clock, so neither CPU steal nor other processes sharing the CPUs count;
    what remains is how fast the host's cores run right now.  The work runs
    in ``REFERENCE_ROUNDS`` rounds and the fastest counts, with the garbage
    collector off: a burst of the caller's own garbage collection or of a
    busy neighbour on the other CPU slows one round, a slower host all.
    """
    import gc

    import numpy as np

    if not _REFERENCE_DATA:
        rng = np.random.default_rng(0)
        _REFERENCE_DATA.extend([
            rng.standard_normal((256, 576)).astype(np.float32),
            rng.standard_normal((576, 256)).astype(np.float32),
            rng.integers(-8, 8, (64, 4096)).astype(np.int16),
            rng.integers(-3, 3, 16).astype(np.int16),
        ])
    a, b, x, table = _REFERENCE_DATA
    collecting = gc.isenabled()
    gc.disable()
    try:
        rounds = []
        for _ in range(REFERENCE_ROUNDS):
            started = time.thread_time()
            for _ in range(40):
                a @ b
            for _ in range(40):
                gate = (x != 0) & (table.take(x + 8) > 0)
                gate.any(axis=0)
                np.concatenate([x, x], axis=1)
            total = 0
            for i in range(150_000):
                total += i * 3 % 7
            rounds.append(time.thread_time() - started)
    finally:
        if collecting:
            gc.enable()
    return min(rounds) * REFERENCE_ROUNDS


def at_reference_speed(cpu_s: float, reference_s: list[float]) -> float:
    """``cpu_s`` scaled to the host speed ``REFERENCE_NOMINAL_S`` stands for.

    ``reference_s`` are ``reference_cpu_s()`` samples taken around the
    measured work; their median says how fast the cores ran meanwhile.
    """
    return cpu_s * REFERENCE_NOMINAL_S / median(reference_s)


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of a live process and its live children."""
    total = 0.0
    ticks = os.sysconf("SC_CLK_TCK")
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            with open(f"/proc/{current}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
            total += (int(fields[11]) + int(fields[12])) / ticks
            for task in os.listdir(f"/proc/{current}/task"):
                with open(f"/proc/{current}/task/{task}/children",
                          encoding="ascii") as children:
                    pending.extend(int(child) for child in children.read().split())
        except FileNotFoundError:
            continue  # the process ended meanwhile
    return total


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) CPU ticks since boot, from ``/proc/stat``.

    Steal is time the hypervisor gave this machine's CPUs to someone else;
    a run with a large steal share measured a slower machine.
    """
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return fields[7], sum(fields[:8])


def environment(blas_threads_by_process: dict[str, int | None]) -> dict:
    """What a result depends on beyond the code: CPUs, BLAS, versions."""
    import numpy

    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_by_process,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def write_json(path: Path, document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(document, indent=1, sort_keys=True))
    tmp.replace(path)


def fail(message: str, code: int = 2) -> None:
    """Abort the run without printing a result line."""
    print(f"perfbench: {message}", file=sys.stderr, flush=True)
    raise SystemExit(code)
