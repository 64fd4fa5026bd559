"""Wiring between the model zoo, the quantizer and the NB-SMT engines.

:class:`SysmtHarness` owns everything a single model's experiments need:
the calibration result (activation scales, BN recalibration, reordering
statistics), the quantized-model wrapper, the reordering permutations, and
helpers to evaluate accuracy under a chosen engine / thread assignment while
collecting per-layer NB-SMT statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import NBSMTEngine
from repro.core.policies import PackingPolicy, default_policy_for, get_policy
from repro.core.smt import SMTStatistics
from repro.models.zoo import TrainedModel
from repro.quant.calibration import CalibrationResult, calibrate_model
from repro.quant.engine import ExactEngine
from repro.quant.qmodel import QuantConfig, QuantizedModel
from repro.systolic.reorder import compute_reorder_permutation


@dataclass
class NBSMTRunResult:
    """Outcome of one NB-SMT evaluation run."""

    accuracy: float
    threads: dict[str, int]
    policy: str
    reordered: bool
    layer_stats: dict[str, SMTStatistics] = field(default_factory=dict)
    speedup: float = 1.0

    def mean_utilization_gain(self) -> float:
        gains = [stats.utilization_gain for stats in self.layer_stats.values()]
        return float(np.mean(gains)) if gains else 1.0


class SysmtHarness:
    """Per-model experiment harness.

    Parameters
    ----------
    trained:
        A :class:`~repro.models.zoo.TrainedModel`.
    eval_images, eval_labels:
        Evaluation set; defaults to (a slice of) the dataset's validation
        split.
    max_eval_images:
        Cap on the evaluation-set size (NB-SMT functional simulation is a few
        times more expensive than plain quantized inference).
    calibration_images:
        Number of training images used by the statistics-gathering pass.
    """

    def __init__(
        self,
        trained: TrainedModel,
        eval_images: np.ndarray | None = None,
        eval_labels: np.ndarray | None = None,
        max_eval_images: int = 256,
        calibration_images: int = 256,
        batch_size: int = 64,
        quant_config: QuantConfig | None = None,
    ):
        self.trained = trained
        dataset = trained.dataset
        if eval_images is None or eval_labels is None:
            eval_images = dataset.val_images
            eval_labels = dataset.val_labels
        self.eval_images = eval_images[:max_eval_images]
        self.eval_labels = eval_labels[:max_eval_images]
        self.batch_size = batch_size

        self.calibration: CalibrationResult = calibrate_model(
            trained.model,
            dataset.calibration_batch(calibration_images),
            batch_size=batch_size,
        )
        self.qmodel = QuantizedModel(
            trained.model, self.calibration, config=quant_config
        )
        self.default_policy: PackingPolicy = default_policy_for(trained.name)
        self._fp32_accuracy: float | None = None
        self._int8_accuracy: float | None = None
        self._layer_macs: dict[str, int] | None = None
        self._reorder_cache: dict[int, dict[str, np.ndarray]] = {}

    # -- lifecycle ---------------------------------------------------------------
    def close(self) -> None:
        """Restore the wrapped model's floating-point execution."""
        self.qmodel.remove()

    def __enter__(self) -> "SysmtHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reference accuracies --------------------------------------------------
    @property
    def fp32_accuracy(self) -> float:
        """Floating-point accuracy on the harness evaluation set."""
        if self._fp32_accuracy is None:
            from repro.nn.train import evaluate_accuracy

            with self.qmodel.float_execution():
                self._fp32_accuracy = evaluate_accuracy(
                    self.trained.model,
                    self.eval_images,
                    self.eval_labels,
                    batch_size=self.batch_size,
                )
        return self._fp32_accuracy

    @property
    def int8_accuracy(self) -> float:
        """8-bit (A8W8) accuracy -- the paper's quantized baseline."""
        if self._int8_accuracy is None:
            self.qmodel.set_engine(ExactEngine())
            self._int8_accuracy = self.qmodel.evaluate(
                self.eval_images, self.eval_labels, batch_size=self.batch_size
            )
        return self._int8_accuracy

    # -- reordering ------------------------------------------------------------
    def reorder_permutations(self, threads: int = 2) -> dict[str, np.ndarray]:
        """Per-layer K-dimension permutations from the calibration statistics."""
        if threads in self._reorder_cache:
            return self._reorder_cache[threads]
        permutations: dict[str, np.ndarray] = {}
        for name in self.qmodel.layer_names():
            stats = self.calibration.column_stats.get(name)
            if stats is None:
                continue
            layer_threads = max(self.qmodel.layers[name].context.threads, threads)
            permutations[name] = compute_reorder_permutation(stats, layer_threads)
        self._reorder_cache[threads] = permutations
        return permutations

    def clear_permutations(self) -> None:
        self.qmodel.set_permutations({name: None for name in self.qmodel.layer_names()})

    # -- NB-SMT evaluation ----------------------------------------------------------
    def evaluate_nbsmt(
        self,
        threads: int | dict[str, int] = 2,
        policy: PackingPolicy | str | None = None,
        reorder: bool = False,
        collect_stats: bool = True,
        workers: int = 1,
        engine: NBSMTEngine | None = None,
    ) -> NBSMTRunResult:
        """Accuracy (and per-layer statistics) of an NB-SMT execution.

        ``workers > 1`` shards the evaluation images across a fork-based
        process pool (see :mod:`repro.eval.parallel`); the per-layer
        statistics of all shards are merged back into the returned result,
        so the outcome is identical to a serial run.  ``engine`` optionally
        supplies a pre-configured engine (for benchmarking alternative
        engine configurations); it must use the requested policy.
        """
        policy = policy or self.default_policy
        policy_obj = get_policy(policy) if isinstance(policy, str) else policy
        if engine is None:
            engine = NBSMTEngine(policy_obj, collect_stats=collect_stats)

        self.qmodel.set_threads(threads)
        if reorder:
            base_threads = threads if isinstance(threads, int) else 2
            self.qmodel.set_permutations(self.reorder_permutations(base_threads))
        else:
            self.clear_permutations()
        self.qmodel.set_engine(engine)
        self.qmodel.clear_stats()

        accuracy = self.qmodel.evaluate(
            self.eval_images, self.eval_labels, batch_size=self.batch_size,
            workers=workers,
        )
        assignment = self.qmodel.thread_assignment()
        return NBSMTRunResult(
            accuracy=accuracy,
            threads=assignment,
            policy=policy_obj.name,
            reordered=reorder,
            layer_stats=dict(engine.layer_stats),
            speedup=self.speedup_for(assignment),
        )

    # -- performance model ------------------------------------------------------------
    def layer_mac_counts(self) -> dict[str, int]:
        """MAC operations per NB-SMT-eligible layer over the evaluation set."""
        if self._layer_macs is not None:
            return self._layer_macs
        previous_engine = self.qmodel.default_engine
        self.qmodel.set_engine(ExactEngine())
        self.qmodel.clear_stats()
        probe_batch = min(16, self.eval_images.shape[0])
        self.qmodel.forward(self.eval_images[:probe_batch])
        stats = self.qmodel.collect_stats()
        scale = self.eval_images.shape[0] / probe_batch
        self._layer_macs = {
            name: int(values.get("macs", 0.0) * scale) for name, values in stats.items()
        }
        self.qmodel.set_engine(previous_engine)
        self.qmodel.clear_stats()
        return self._layer_macs

    def speedup_for(self, assignment: dict[str, int]) -> float:
        """Whole-model speedup of a per-layer thread assignment (Section V-B).

        Every layer's execution time is proportional to its MAC count divided
        by the thread count it runs with; the conventional SA runs every layer
        with one thread.
        """
        macs = self.layer_mac_counts()
        if not macs:
            return 1.0
        baseline_time = sum(macs.values())
        smt_time = sum(
            count / max(assignment.get(name, 1), 1) for name, count in macs.items()
        )
        if smt_time == 0:
            return 1.0
        return baseline_time / smt_time
