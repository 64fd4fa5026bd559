"""Steady end-to-end benchmark of the NB-SMT reproduction, layer by layer.

Usage::

    python3 perfbench/run.py --workload {eval-4t,eval-2t,serve-http,all}
                             [--seed N] [--seconds S] [--trace 0|1]

``eval-4t`` and ``eval-2t`` run closed loops of
``SysmtHarness.evaluate_nbsmt`` passes on ResNet-18 at 4 and 2 NB-SMT
threads; ``serve-http`` drives the real ``repro.cli serve alexnet`` over
HTTP.  The seed picks the image order; the program only sees images.
Outputs are checked: eval passes against the digests in ``golden.json``,
served logits bit for bit against logits the harness computes before the
timed phases.  ``--trace 1`` repeats the run with the layers wrapped from
outside the program and reports per-layer metrics instead.  README.md
describes the workloads and every metric.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Each run also saves a record
under ``.perfbench/results`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchlib
from benchlib import CACHE, RESULTS, SPANS, WORK, median, quantile

HERE = Path(__file__).resolve().parent

#: End-to-end metrics (name -> unit).  Throughput and eval pass times are
#: CPU time of the measured process at reference speed
#: (``benchlib.at_reference_speed``), which neither CPU steal nor other
#: processes on the CPUs move; serve latencies are wall time.
#: ``ok_share`` is one minus the share of operations that failed, were shed
#: or returned wrong outputs.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "throughput_per_cpu_s": "images/cpu-s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "ok_share": "share",
}

EVAL = {
    "eval-4t": {"threads": 4, "images": 64},
    "eval-2t": {"threads": 2, "images": 160},
}
#: Fresh eval processes per run: each one sets up (imports, checkpoint
#: load, calibration, one untimed pass) and then runs its share of the
#: timed passes.  Two is what the run length affords: one ResNet-18 4T
#: set-up alone takes 11-14 s on a 2-CPU box.
EVAL_PROCESSES = 2

SERVE_MODEL = "alexnet"
SERVE_THREADS = 2
SERVE_MAX_BATCH = 8
#: Servers started per run; the first ones only measure set-up.
SERVE_SETUPS = 3
#: Phase-1 requests fill a batch on their own.  With 4-image requests
#: from two clients the batch filled to 8 only when the second body was
#: decoded within the 5 ms batching window, and decoding a 4-image JSON
#: body takes about 6 ms: batches flipped between runs of 4s and runs of
#: 8s (mean 6.7) and throughput with them.
PHASE1_IMAGES_PER_REQUEST = SERVE_MAX_BATCH
PHASE2_RATE = 25.0
PHASE1_SHARE = 0.3
#: The phases alternate in this many cycles, so each end-to-end metric
#: samples the whole run rather than one stretch of a host whose speed
#: drifts over seconds.
SERVE_CYCLES = 4
CONNECTIONS = 2
#: The server gets one BLAS thread because the load generator needs the
#: other CPU of a 2-CPU box: at 25 req/s one probe saw p99 spread over
#: 34-507 ms with OpenBLAS's default 2 threads and 48-83 ms with 1.  The
#: generator computes its reference logits with the same setting, because
#: OpenBLAS's summation order depends on its thread count.
SERVE_BLAS_THREADS = 1
#: Eval processes get one BLAS thread as well: two ran eval-4t 3% faster in
#: wall time for 65% more CPU time (OpenBLAS's second thread spins), and
#: made every pass wait on both CPUs, so steal on either slowed it.  With
#: one thread the process's CPU time is the pass's cost.  The count is
#: pinned so the digests in golden.json hold on a box with another CPU
#: count.
EVAL_BLAS_THREADS = 1

ENGINE_LAYERS = {
    "resnet18": ("3.body.0", "3.body.3", "4.body.0", "4.body.3", "5.body.0",
                 "5.body.3", "5.shortcut.0", "6.body.0", "6.body.3",
                 "7.body.0", "7.body.3", "7.shortcut.0", "8.body.0",
                 "8.body.3"),
    "alexnet": ("4", "8", "11", "14"),
}

#: Per-layer metrics (name -> unit); a layer a workload does not run
#: reads 0.  ``traced.*`` are the end-to-end metrics of the traced run,
#: which compare.py subtracts from the untraced runs' (tracing overhead).
PER_LAYER = {
    "core.engine.busy_ms_per_image": "ms/image",
    "core.engine.calls": "count/forward",
    "core.engine.macs": "count/image",
    **{
        f"core.layer.{model}.{layer}.busy_ms": "ms/image"
        for model, layers in ENGINE_LAYERS.items()
        for layer in layers
    },
    "quant.qmodel.self_ms_per_image": "ms/image",
    "eval.harness.self_ms_per_pass": "ms/pass",
    "serve.server.self_ms_p50": "ms",
    "serve.batcher.queue_wait_ms_p50": "ms",
    "serve.batcher.queue_wait_ms_p90": "ms",
    "serve.batcher.mean_batch_images": "images",
    "serve.batcher.service_ms_p50": "ms",
    "serve.pool.runner_ms_p50": "ms",
    "serve.registry.admitted": "count",
    "serve.registry.shed": "count",
    "telemetry.spans_published": "count/request",
    "gen.late_ms_max": "ms",
    "trace.accounted_share": "share",
    **{f"traced.{name}": unit for name, unit in END_TO_END.items()},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="NB-SMT end-to-end benchmark (see module docstring)"
    )
    parser.add_argument("--workload", default="all",
                        choices=(*EVAL, "serve-http", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true",
                        help="only train/load the checkpoints (untimed step)")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current program")
    return parser.parse_args(argv)


# -- shared ---------------------------------------------------------------


def prepare() -> None:
    """Train the workloads' checkpoints once, untimed, into the cache."""
    started = time.monotonic()
    subprocess.run(
        [sys.executable, str(Path(__file__)), "--prepare"],
        env=benchlib.child_env(EVAL_BLAS_THREADS), stdout=sys.stderr, check=True,
        timeout=850,
    )
    print(f"checkpoints ready in {time.monotonic() - started:.1f} s (untimed)",
          file=sys.stderr, flush=True)


def prepare_in_process() -> None:
    from repro.models.zoo import load_trained_model

    for name in benchlib.MODELS:
        load_trained_model(name, fast=True)


def stop(process: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM, then wait; SIGKILL only if graceful shutdown hangs."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def layer_zeros() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


# -- eval workloads ---------------------------------------------------------


def run_eval(workload: str, seed: int, seconds: float, trace: int) -> dict:
    config = EVAL[workload]
    records = []
    remaining = float(seconds)
    for index in range(EVAL_PROCESSES):
        out = WORK / "tmp" / f"{workload}-{os.getpid()}-{index}.json"
        spans = SPANS / f"{workload}-seed{seed}-{os.getpid()}-{index}.json"
        command = [
            sys.executable, str(HERE / "eval_worker.py"),
            "--threads", str(config["threads"]),
            "--images", str(config["images"]),
            "--seed", str(seed),
            "--budget", str(remaining / (EVAL_PROCESSES - index)),
            "--trace", str(trace),
            "--out", str(out),
        ]
        if trace:
            command += ["--spans", str(spans)]
        spawned = time.monotonic()
        process = subprocess.Popen(
            command, env=benchlib.child_env(EVAL_BLAS_THREADS), stdout=sys.stderr,
        )
        try:
            code = process.wait(timeout=100)
        finally:
            stop(process)
        if code != 0:
            benchlib.fail(f"{workload}: eval process exited with {code}")
        record = json.loads(out.read_text())
        out.unlink()
        record["setup_s"] = record["t_warm"] - spawned
        remaining = max(0.0, remaining - record["window_s"])
        records.append(record)

    passes = [p for r in records for p in r["passes"]]
    pass_ms = [p["seconds"] * 1000.0 for p in passes]
    # Each pass's CPU time at reference speed, scaled by the reference
    # samples of its own process.
    pass_cpu_ms = [benchlib.at_reference_speed(p["cpu_s"], r["reference_s"]) * 1e3
                   for r in records for p in r["passes"]]
    checks = [r["warm_problems"] for r in records] + [p["problems"] for p in passes]
    failed = sum(1 for problems in checks if problems)
    for problems in checks:
        for problem in problems:
            print(f"{workload}: output check failed: {problem}", file=sys.stderr)
    metrics = {
        "setup_s": median([r["setup_s"] for r in records]),
        "peak_rss_mb": median([r["vm_hwm_mb"] for r in records]),
        "throughput_per_cpu_s": sum(p["images"] for p in passes)
                                / sum(pass_cpu_ms) * 1e3,
        "p50_ms": quantile(pass_cpu_ms, 0.5),
        "p90_ms": quantile(pass_cpu_ms, 0.9),
        "ok_share": 1.0 - failed / len(checks),
    }
    result = {
        "attempted": len(checks),
        "failed": failed,
        "metrics": metrics,
        "blas_threads": {"eval": records[0]["blas_threads"]},
        "details": {"setups_s": [r["setup_s"] for r in records],
                    "wall_throughput_per_s": sum(p["images"] for p in passes)
                                             / sum(p["seconds"] for p in passes),
                    "pass_ms": pass_ms,
                    "pass_cpu_ms": pass_cpu_ms,
                    "reference_s": [s for r in records for s in r["reference_s"]],
                    "warm_pass_s": [r["warm_pass_s"] for r in records],
                    "problems": [p for problems in checks for p in problems]},
    }
    if trace:
        result["layers"] = eval_layers(records, metrics)
    return result


def eval_layers(records: list[dict], metrics: dict) -> dict:
    traces = [r["trace"] for r in records]

    def total(key):
        return sum(t[key] for t in traces)

    images = total("images")
    layers = layer_zeros()
    layers.update({
        "core.engine.busy_ms_per_image": total("engine_s") / images * 1e3,
        "core.engine.calls": total("engine_calls") / total("forwards"),
        "core.engine.macs": total("engine_macs") / images,
        "quant.qmodel.self_ms_per_image": total("qmodel_self_s") / images * 1e3,
        "eval.harness.self_ms_per_pass":
            total("harness_self_s") / total("passes") * 1e3,
        "trace.accounted_share": (
            total("engine_s") + total("qmodel_self_s") + total("harness_self_s")
        ) / total("window_s"),
    })
    for layer in ENGINE_LAYERS["resnet18"]:
        busy = sum(t["layer_engine_s"].get(layer, 0.0) for t in traces)
        layers[f"core.layer.resnet18.{layer}.busy_ms"] = busy / images * 1e3
    layers.update({f"traced.{name}": value for name, value in metrics.items()})
    return layers


# -- serve-http -------------------------------------------------------------


class Reference:
    """Served logits the harness computes before the timed phases.

    The serving promise is bit-identity with the harness for the same batch
    partition.  The engine's integer arithmetic makes each image's logits
    independent of its batch companions, but the unquantized first and last
    layers are float BLAS calls, and OpenBLAS sums a matmul of one, two or
    eight rows in different orders.  So each image has two references
    computed in advance: as a batch of one, and inside a full batch.  A
    1-image request that was in flight with another one may have shared a
    batch of two with it; that pair is computed when the check needs it.
    """

    def __init__(self, seed: int):
        import numpy as np

        from repro.core.engine import NBSMTEngine
        from repro.eval.experiments.common import get_harness
        from repro.serve.registry import ModelSpec

        spec = ModelSpec(name=SERVE_MODEL, threads=SERVE_THREADS,
                         max_batch=SERVE_MAX_BATCH)
        harness = get_harness(SERVE_MODEL, "fast")
        qmodel = harness.qmodel
        qmodel.ensure_installed()
        qmodel.set_threads(spec.threads)
        harness.clear_permutations()
        qmodel.set_engine(NBSMTEngine(
            spec.resolved_policy(), collect_stats=spec.collect_stats,
            fast4t_impl=spec.fast4t_impl, prune_blocks=spec.prune_blocks,
        ))
        dataset = harness.trained.dataset
        order = np.random.default_rng(seed).permutation(len(dataset.val_images))
        self.images = dataset.val_images[order]
        self.solo = np.vstack([qmodel.forward(self.images[i : i + 1])
                               for i in range(len(self.images))])
        self.batched = np.vstack([
            qmodel.forward(self.images[i : i + SERVE_MAX_BATCH])
            for i in range(0, len(self.images), SERVE_MAX_BATCH)
        ])
        self.harness = harness

    def body(self, start: int, count: int) -> bytes:
        return json.dumps(
            {"inputs": self.images[start : start + count].tolist()}
        ).encode("utf-8")

    def check(self, request: dict, others: list[dict]) -> str | None:
        """``None`` when the response is right, else what is wrong.

        ``others`` are the run's other requests; the ones in flight at the
        same time as a 1-image ``request`` are its possible batch partners.
        """
        import numpy as np

        start, count, status, body = (request[key] for key in
                                      ("start", "count", "status", "body"))
        if status != 200:
            return f"HTTP {status}: {body[:200]!r}"
        try:
            outputs = np.asarray(json.loads(body)["outputs"], dtype=np.float32)
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed response {body[:200]!r}: {exc!r}"
        window = slice(start, start + count)
        if np.array_equal(outputs, self.batched[window]):
            return None
        if count == 1:
            if np.array_equal(outputs, self.solo[window]):
                return None
            partners = [other["start"] for other in others
                        if other is not request and other["count"] == 1
                        and other["sent"] < request["received"]
                        and request["sent"] < other["received"]]
            for partner in partners:
                for pair in ((start, partner), (partner, start)):
                    logits = self.harness.qmodel.forward(self.images[list(pair)])
                    if np.array_equal(outputs[0], logits[pair.index(start)]):
                        return None
        return f"logits of images {start}..{start + count - 1} differ from the harness"

    def close(self) -> None:
        self.harness.close()


class Connection:
    """One keep-alive HTTP connection of the load generator."""

    def __init__(self, port: int):
        self.port = port
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)

    def post(self, path: str, body: bytes, trace_id: str) -> tuple[int, bytes]:
        headers = {"Content-Type": "application/json", "X-Trace-Id": trace_id}
        try:
            self.conn.request("POST", path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self.conn.close()
            self.conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                                   timeout=60)
            return 0, repr(exc).encode()

    def get_json(self, path: str) -> dict:
        self.conn.request("GET", path)
        response = self.conn.getresponse()
        return json.loads(response.read())

    def close(self) -> None:
        self.conn.close()


def trace_id(seed: int, phase: str, index: int) -> str:
    return hashlib.sha256(f"{seed}/{phase}/{index}".encode()).hexdigest()[:32]


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def start_server(trace: int, records: Path | None) -> tuple[subprocess.Popen, int, float]:
    """Spawn one server; returns it, its port and its set-up seconds."""
    port = free_port()
    cli = ["serve", SERVE_MODEL, "--threads", str(SERVE_THREADS),
           "--max-batch", str(SERVE_MAX_BATCH), "--port", str(port)]
    if trace:
        command = [sys.executable, str(HERE / "serve_launcher.py"), str(records), *cli]
    else:
        command = [sys.executable, "-m", "repro.cli", *cli]
    spawned = time.monotonic()
    process = subprocess.Popen(
        command, env=benchlib.child_env(SERVE_BLAS_THREADS), stdout=sys.stderr,
    )
    deadline = spawned + 120.0
    while True:
        if process.poll() is not None:
            benchlib.fail(f"server exited with {process.returncode} during set-up")
        try:
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
            conn.request("GET", "/healthz")
            status = conn.getresponse().status
            conn.close()
            if status == 200:
                return process, port, time.monotonic() - spawned
        except OSError:
            pass
        if time.monotonic() > deadline:
            stop(process)
            benchlib.fail("server did not become healthy within 120 s")
        time.sleep(0.01)


def run_clients(client) -> None:
    """Run ``client(i)`` on ``CONNECTIONS`` threads; re-raise any failure."""
    errors: list[BaseException] = []

    def guarded(offset: int) -> None:
        try:
            client(offset)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [threading.Thread(target=guarded, args=(i,))
               for i in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def closed_loop(port: int, bodies: list[tuple[int, int, bytes]], seconds: float,
                seed: int, phase: str) -> list[dict]:
    """``CONNECTIONS`` clients, each sending its next request on a reply."""
    done: list[dict] = []
    path = f"/v1/models/{SERVE_MODEL}:predict"
    stop_at = time.monotonic() + seconds

    def client(offset: int) -> None:
        conn = Connection(port)
        index = offset
        while time.monotonic() < stop_at:
            start, count, body = bodies[index % len(bodies)]
            tid = trace_id(seed, phase, index)
            sent = time.monotonic()
            status, reply = conn.post(path, body, tid)
            done.append({"start": start, "count": count, "status": status,
                         "body": reply, "sent": sent,
                         "received": time.monotonic(), "trace_id": tid})
            index += CONNECTIONS
        conn.close()

    run_clients(client)
    return done


def open_loop(port: int, bodies: list[tuple[int, int, bytes]], first: int,
              requests: int, seed: int) -> list[dict]:
    """Requests ``first..first+requests-1`` due on a fixed schedule, sent
    round-robin on the connections."""
    done: list[dict] = []
    path = f"/v1/models/{SERVE_MODEL}:predict"
    first_due = time.monotonic() + 0.05

    def client(offset: int) -> None:
        conn = Connection(port)
        for index in range(first + offset, first + requests, CONNECTIONS):
            due = first_due + (index - first) / PHASE2_RATE
            pause = due - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            start, count, body = bodies[index % len(bodies)]
            tid = trace_id(seed, "open", index)
            sent = time.monotonic()
            status, reply = conn.post(path, body, tid)
            done.append({"start": start, "count": count, "status": status,
                         "body": reply, "sent": sent, "due": due,
                         "received": time.monotonic(), "trace_id": tid})
        conn.close()

    run_clients(client)
    return done


def run_serve(seed: int, seconds: float, trace: int) -> dict:
    benchlib.guard_training()
    reference = Reference(seed)
    images = len(reference.images)
    per_request = PHASE1_IMAGES_PER_REQUEST
    batch_bodies = [(i, per_request, reference.body(i, per_request))
                    for i in range(0, images - per_request + 1, per_request)]
    single_bodies = [(i, 1, reference.body(i, 1)) for i in range(images)]
    records_path = SPANS / f"serve-http-seed{seed}-{os.getpid()}.json"

    setups = []
    for _ in range(SERVE_SETUPS - 1):
        process, _, setup = start_server(trace, records_path)
        setups.append(setup)
        stop(process)
    process, port, setup = start_server(trace, records_path)
    setups.append(setup)
    closed_per_cycle = seconds * PHASE1_SHARE / SERVE_CYCLES
    open_requests = round(seconds * (1 - PHASE1_SHARE) * PHASE2_RATE / SERVE_CYCLES)
    phase1, phase2, windows1, windows2 = [], [], [], []
    closed_images, closed_seconds, closed_cpu_s = 0, 0.0, 0.0
    # Reference samples between the phases, while the server is idle, track
    # the host's core speed through the run (see benchlib.reference_cpu_s).
    references = []
    try:
        warmup = closed_loop(port, batch_bodies, 0.5, seed, "warm")
        for cycle in range(SERVE_CYCLES):
            references.append(benchlib.reference_cpu_s())
            cpu_before = benchlib.process_cpu_s(process.pid)
            started = time.monotonic()
            closed = closed_loop(port, batch_bodies, closed_per_cycle, seed,
                                 f"closed{cycle}")
            ended = max(r["received"] for r in closed)
            closed_cpu_s += benchlib.process_cpu_s(process.pid) - cpu_before
            windows1.append((started, ended))
            closed_images += sum(r["count"] for r in closed if r["status"] == 200)
            closed_seconds += ended - started
            phase1 += closed
            started = time.monotonic()
            phase2 += open_loop(port, single_bodies, cycle * open_requests,
                                open_requests, seed)
            windows2.append((started, time.monotonic()))
        references.append(benchlib.reference_cpu_s())
        peak_rss = benchlib.vm_hwm_mb(process.pid)
        conn = Connection(port)
        telemetry = conn.get_json("/v1/telemetry")
        conn.close()
    finally:
        stop(process)

    everything = warmup + phase1 + phase2
    problems = []
    for request in everything:
        problem = reference.check(request, everything)
        request["ok"] = problem is None
        if problem is not None:
            problems.append(problem)
            print(f"serve-http: output check failed: {problem}", file=sys.stderr)
    reference.close()
    failed = len(problems)
    latencies = [(r["received"] - r["due"]) * 1e3 for r in phase2 if r["ok"]]
    late_ms = [(r["sent"] - r["due"]) * 1e3 for r in phase2]
    metrics = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss,
        # Images answered per CPU second the server spent in the closed-loop
        # windows, at reference speed (wrong answers count as failures in
        # ok_share, not here).
        "throughput_per_cpu_s":
            closed_images / benchlib.at_reference_speed(closed_cpu_s, references),
        "p50_ms": quantile(latencies, 0.5),
        "p90_ms": quantile(latencies, 0.9),
        "ok_share": 1.0 - failed / len(everything),
    }
    result = {
        "attempted": len(everything),
        "failed": failed,
        "metrics": metrics,
        "blas_threads": {"server": SERVE_BLAS_THREADS},
        "details": {
            "setups_s": setups,
            "wall_throughput_per_s": closed_images / closed_seconds,
            "server_cpu_share": closed_cpu_s / closed_seconds,
            "reference_s": references,
            "phase1_requests": len(phase1),
            "phase2_requests": len(phase2),
            "phase2_samples_beyond_p90":
                sum(1 for v in latencies if v > metrics["p90_ms"]),
            "gen.late_ms_max": max(late_ms),
            "spans_published": telemetry["tracing"]["published_spans"],
            "problems": problems,
        },
    }
    if trace:
        records = json.loads(records_path.read_text())
        result["layers"] = serve_layers(
            records, windows1, phase2, windows2, metrics,
            telemetry["tracing"]["published_spans"] / len(everything),
            max(late_ms),
        )
    return result


def serve_layers(records: dict, windows1: list[tuple[float, float]],
                 phase2: list[dict], windows2: list[tuple[float, float]],
                 metrics: dict,
                 spans_per_request: float, late_ms_max: float) -> dict:
    """Per-layer numbers from the launcher's records, split by phase.

    Throughput-side layers (batch size, service, runner, model, engine) are
    read over phase 1; latency-side ones (front end, queue wait) over phase
    2, the phase whose end-to-end metric each explains.
    """
    import bisect

    def within(stamp, windows):
        return any(start <= stamp <= end for start, end in windows)

    batches1 = [b for b in records["batches"] if within(b[0], windows1)]
    batches2 = [b for b in records["batches"] if within(b[0], windows2)]
    runs1 = [r for r in records["runs"] if within(r[1], windows1)]
    forwards1 = [f for f in records["forwards"] if within(f[1], windows1)]
    engine1 = [e for e in records["engine"] if within(e[2], windows1)]
    admits = [a for a in records["admits"] if within(a[0], windows1 + windows2)]
    images1 = sum(f[2] for f in forwards1)
    engine_s = sum(e[2] - e[1] for e in engine1)
    forward_s = sum(f[1] - f[0] for f in forwards1)

    # Per request of phase 2: client latency from send = time in the
    # server's front end + time inside the batcher (submit to resolve),
    # and the batcher time = queue wait + service of the batch that ran it.
    submits = {s[0]: s for s in records["submits"] if s[0] is not None}
    batch_ends = sorted(b[0] for b in records["batches"])
    service_by_end = {b[0]: b[2] for b in records["batches"]}
    front, latency_sum, accounted_sum = [], 0.0, 0.0
    for request in phase2:
        entry = submits.get(request["trace_id"])
        if entry is None or entry[2] is None:
            continue
        _, submitted, resolved, _ = entry
        latency = request["received"] - request["sent"]
        self_s = latency - (resolved - submitted)
        front.append(self_s * 1e3)
        position = bisect.bisect_right(batch_ends, resolved) - 1
        if position < 0:
            continue
        end = batch_ends[position]
        service = service_by_end[end]
        queue_wait = max(0.0, end - service - submitted)
        latency_sum += latency
        accounted_sum += self_s + queue_wait + service

    queue_waits2 = [w * 1e3 for b in batches2 for w in b[3]]
    layers = layer_zeros()
    layers.update({
        "core.engine.busy_ms_per_image": engine_s / images1 * 1e3,
        "core.engine.calls": len(engine1) / len(forwards1),
        "core.engine.macs": sum(e[3] for e in engine1) / images1,
        "quant.qmodel.self_ms_per_image": (forward_s - engine_s) / images1 * 1e3,
        "serve.server.self_ms_p50": quantile(front, 0.5),
        "serve.batcher.queue_wait_ms_p50": quantile(queue_waits2, 0.5),
        "serve.batcher.queue_wait_ms_p90": quantile(queue_waits2, 0.9),
        "serve.batcher.mean_batch_images":
            sum(b[1] for b in batches1) / len(batches1),
        "serve.batcher.service_ms_p50": quantile([b[2] * 1e3 for b in batches1], 0.5),
        "serve.pool.runner_ms_p50":
            quantile([(r[1] - r[0]) * 1e3 for r in runs1], 0.5),
        "serve.registry.admitted": float(sum(1 for a in admits if a[1])),
        "serve.registry.shed": float(sum(1 for a in admits if not a[1])),
        "telemetry.spans_published": spans_per_request,
        "gen.late_ms_max": late_ms_max,
        "trace.accounted_share": accounted_sum / latency_sum,
    })
    for layer in ENGINE_LAYERS[SERVE_MODEL]:
        busy = sum(e[2] - e[1] for e in engine1 if e[0] == layer)
        layers[f"core.layer.{SERVE_MODEL}.{layer}.busy_ms"] = busy / images1 * 1e3
    layers.update({f"traced.{name}": value for name, value in metrics.items()})
    return layers


# -- entry point --------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    if workload in EVAL:
        return run_eval(workload, seed, seconds, trace)
    return run_serve(seed, seconds, trace)


def report(workload: str, args, result: dict, env: dict) -> dict:
    """Print the metrics by name and unit; save the run's record."""
    names = PER_LAYER if args.trace else END_TO_END
    values = result["layers"] if args.trace else result["metrics"]
    print(f"== {workload} (seed {args.seed}, {args.seconds} s, trace {args.trace}): "
          f"{result['attempted'] - result['failed']}/{result['attempted']} "
          f"operations correct")
    for name, unit in names.items():
        if args.trace and values[name] == 0.0 and not name.startswith("traced."):
            continue  # a layer this workload does not run
        print(f"  {name:44s} {values[name]:14.6g} {unit}")
    for key, value in result["details"].items():
        if not isinstance(value, list):
            print(f"  [{key}] {value}")
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "finished": time.time(), "environment": env,
        **result,
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    benchlib.write_json(
        RESULTS / f"{workload}.trace{args.trace}.seed{args.seed}."
                  f"{time.strftime('%Y%m%dT%H%M%S')}.{os.getpid()}.json",
        record,
    )
    return {name: {"value": values[name], "unit": unit}
            for name, unit in names.items()}


def record_golden() -> None:
    """Rewrite golden.json: digests of one pass of each eval workload."""
    golden = {}
    for workload, config in EVAL.items():
        out = WORK / "tmp" / f"golden-{workload}.json"
        subprocess.run(
            [sys.executable, str(HERE / "eval_worker.py"),
             "--threads", str(config["threads"]), "--images",
             str(config["images"]), "--seed", "0", "--budget", "0",
             "--out", str(out), "--record"],
            env=benchlib.child_env(EVAL_BLAS_THREADS), stdout=sys.stderr,
            check=True,
        )
        golden[workload] = json.loads(out.read_text())["digests"]
        out.unlink()
    benchlib.write_json(benchlib.GOLDEN, golden)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not benchlib.repo_ok():
        benchlib.fail(f"no program sources under {benchlib.SRC}; run from a "
                      "checkout of the repository")
    os.environ["REPRO_CACHE_DIR"] = str(CACHE)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(SERVE_BLAS_THREADS)  # before numpy loads
    sys.path.insert(0, str(benchlib.SRC))
    if args.prepare:
        prepare_in_process()
        return 0
    if args.seconds < 1:
        benchlib.fail("--seconds must be at least 1")
    prepare()
    if args.record_golden:
        record_golden()
        return 0
    workloads = [*EVAL, "serve-http"] if args.workload == "all" else [args.workload]
    env = None
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        steal_before, total_before = benchlib.cpu_ticks()
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        steal_after, total_after = benchlib.cpu_ticks()
        result["details"]["cpu_steal_share"] = (
            (steal_after - steal_before) / max(1, total_after - total_before)
        )
        if env is None:
            env = benchlib.environment({})
        env["blas_threads"].update(result.pop("blas_threads"))
        metrics = report(workload, args, result, env)
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["correct"] = combined["correct"] and result["failed"] == 0
        prefix = "" if len(workloads) == 1 else f"{workload}."
        combined["metrics"].update(
            {prefix + name: value for name, value in metrics.items()}
        )
    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
