"""Quantized-model executor: hook installation, accuracy, configuration."""

import numpy as np
import pytest

from repro.core.engine import NBSMTEngine
from repro.nn import Conv2d
from repro.quant.calibration import calibrate_model
from repro.quant.engine import ExactEngine
from repro.quant.qmodel import QuantConfig, QuantizedModel


@pytest.fixture(scope="module")
def calibrated(tiny_trained_entry):
    model = tiny_trained_entry.model
    calibration = calibrate_model(
        model, tiny_trained_entry.dataset.calibration_batch(96), batch_size=48
    )
    return tiny_trained_entry, calibration


def test_first_conv_is_skipped(calibrated):
    entry, calibration = calibrated
    with QuantizedModel(entry.model, calibration) as qmodel:
        conv_names = [
            name for name, module in entry.model.named_modules()
            if isinstance(module, Conv2d)
        ]
        assert conv_names[0] not in qmodel.layers
        assert set(qmodel.layer_names()) == set(conv_names[1:])


def test_int8_accuracy_close_to_fp32(calibrated):
    entry, calibration = calibrated
    dataset = entry.dataset
    with QuantizedModel(entry.model, calibration, engine=ExactEngine()) as qmodel:
        int8_accuracy = qmodel.evaluate(dataset.val_images, dataset.val_labels)
    from repro.nn.train import evaluate_accuracy

    fp32_accuracy = evaluate_accuracy(
        entry.model, dataset.val_images, dataset.val_labels
    )
    assert abs(int8_accuracy - fp32_accuracy) <= 0.05


def test_remove_restores_float_execution(calibrated):
    entry, calibration = calibrated
    qmodel = QuantizedModel(entry.model, calibration)
    hooked = {name: layer.module.matmul_fn for name, layer in qmodel.layers.items()}
    qmodel.remove()
    for name, layer in qmodel.layers.items():
        assert layer.module.matmul_fn is not hooked[name]


def test_thread_assignment_and_engine_selection(calibrated):
    entry, calibration = calibrated
    with QuantizedModel(entry.model, calibration) as qmodel:
        qmodel.set_threads(4)
        assert set(qmodel.thread_assignment().values()) == {4}
        first = qmodel.layer_names()[0]
        qmodel.set_threads({first: 1})
        assert qmodel.thread_assignment()[first] == 1

        engine = NBSMTEngine("S+A")
        qmodel.set_engine(engine, [first])
        assert qmodel.layers[first].engine is engine
        qmodel.set_engine(ExactEngine())
        assert qmodel.layers[first].engine is None


def test_permutations_and_stats_roundtrip(calibrated):
    entry, calibration = calibrated
    with QuantizedModel(entry.model, calibration) as qmodel:
        name = qmodel.layer_names()[0]
        k = calibration.column_stats[name].num_columns
        qmodel.set_permutations({name: np.arange(k)})
        assert qmodel.layers[name].context.permutation is not None
        qmodel.clear_stats()
        qmodel.forward(entry.dataset.val_images[:16])
        stats = qmodel.collect_stats()
        assert stats[name].get("macs", 0) > 0


def test_missing_calibration_raises(calibrated):
    entry, _ = calibrated
    from repro.quant.calibration import CalibrationResult

    with pytest.raises(KeyError):
        QuantizedModel(entry.model, CalibrationResult())


def test_nbsmt_engine_changes_outputs_but_not_catastrophically(calibrated):
    entry, calibration = calibrated
    dataset = entry.dataset
    with QuantizedModel(entry.model, calibration) as qmodel:
        qmodel.set_engine(ExactEngine())
        exact_logits = qmodel.forward(dataset.val_images[:16])
        qmodel.set_engine(NBSMTEngine("S+A", collect_stats=False))
        qmodel.set_threads(2)
        noisy_logits = qmodel.forward(dataset.val_images[:16])
    assert not np.allclose(exact_logits, noisy_logits)
    # The perturbation is bounded: predictions mostly agree.
    agreement = (exact_logits.argmax(1) == noisy_logits.argmax(1)).mean()
    assert agreement >= 0.7


def test_second_wrapper_over_a_wrapped_model_raises(calibrated):
    entry, calibration = calibrated
    with QuantizedModel(entry.model, calibration) as qmodel:
        hooks = {name: layer.hook for name, layer in qmodel.layers.items()}
        with pytest.raises(ValueError, match="quantization hook"):
            QuantizedModel(entry.model, calibration)
        # The refused wrapper left the installed hooks in place.
        for name, layer in qmodel.layers.items():
            assert layer.module.matmul_fn is hooks[name]
    # Once removed, the model takes a new wrapper.
    QuantizedModel(entry.model, calibration).remove()


def test_calibrating_a_wrapped_model_raises(calibrated):
    entry, calibration = calibrated
    images = entry.dataset.calibration_batch(48)
    with QuantizedModel(entry.model, calibration):
        with pytest.raises(ValueError, match="quantization hook"):
            calibrate_model(entry.model, images, batch_size=48)
