"""Sharded multi-process evaluation: equivalence with the serial path."""

import numpy as np
import pytest

from repro.eval.parallel import (
    count_correct,
    evaluate_sharded,
    fork_available,
    shard_bounds,
)


def test_shard_bounds_cover_range_exactly():
    for total in (1, 2, 7, 64, 97):
        for shards in (1, 2, 4, 9, 200):
            bounds = shard_bounds(total, shards)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == total
            for (_, stop), (start, _) in zip(bounds, bounds[1:]):
                assert stop == start
            assert len(bounds) <= max(1, min(shards, total))
            sizes = [stop - start for start, stop in bounds]
            assert max(sizes) - min(sizes) <= 1


def test_count_correct_matches_evaluate_accuracy(tiny_harness):
    from repro.nn.train import evaluate_accuracy

    images = tiny_harness.eval_images
    labels = tiny_harness.eval_labels
    correct = count_correct(tiny_harness.qmodel.model, images, labels, batch_size=48)
    accuracy = evaluate_accuracy(
        tiny_harness.qmodel.model, images, labels, batch_size=48
    )
    assert correct / images.shape[0] == pytest.approx(accuracy)


def test_evaluate_sharded_serial_fallback(tiny_harness):
    accuracy_serial = tiny_harness.qmodel.evaluate(
        tiny_harness.eval_images, tiny_harness.eval_labels, batch_size=48
    )
    accuracy_fallback = evaluate_sharded(
        tiny_harness.qmodel,
        tiny_harness.eval_images,
        tiny_harness.eval_labels,
        batch_size=48,
        workers=1,
    )
    assert accuracy_fallback == pytest.approx(accuracy_serial)


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_parallel_nbsmt_run_matches_serial(tiny_harness):
    serial = tiny_harness.evaluate_nbsmt(threads=2, collect_stats=True)
    parallel = tiny_harness.evaluate_nbsmt(threads=2, collect_stats=True, workers=2)
    assert parallel.accuracy == pytest.approx(serial.accuracy)
    assert set(parallel.layer_stats) == set(serial.layer_stats)
    for name, stats in serial.layer_stats.items():
        assert parallel.layer_stats[name].as_dict() == pytest.approx(
            stats.as_dict()
        ), name


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_parallel_accuracy_eval_matches_serial(tiny_harness):
    qmodel = tiny_harness.qmodel
    serial = qmodel.evaluate(
        tiny_harness.eval_images, tiny_harness.eval_labels, batch_size=48
    )
    parallel = qmodel.evaluate(
        tiny_harness.eval_images, tiny_harness.eval_labels, batch_size=48, workers=2
    )
    assert parallel == pytest.approx(serial)


def test_empty_evaluation_set(tiny_harness):
    accuracy = evaluate_sharded(
        tiny_harness.qmodel,
        tiny_harness.eval_images[:0],
        tiny_harness.eval_labels[:0],
        workers=4,
    )
    assert accuracy == 0.0


@pytest.mark.skipif(not fork_available(), reason="fork start method unavailable")
def test_worklist_worker_drains_on_sigterm(tmp_path):
    """A signaled worker finishes its in-flight thunk, skips the rest and
    exits cleanly (graceful shutdown, no orphaned state)."""
    import os
    import signal

    from repro.eval.parallel import run_worklists

    def first_thunk():
        (tmp_path / "first.done").write_text("ok")
        os.kill(os.getpid(), signal.SIGTERM)  # arrives mid-worklist
        (tmp_path / "first.after-signal").write_text("ok")

    def second_thunk():
        (tmp_path / "second.done").write_text("ok")

    ok = run_worklists([[first_thunk, second_thunk]])
    assert ok == [True]
    # The in-flight thunk completed past the signal (drain, not abort)...
    assert (tmp_path / "first.done").exists()
    assert (tmp_path / "first.after-signal").exists()
    # ...and the remaining thunk was skipped.
    assert not (tmp_path / "second.done").exists()
