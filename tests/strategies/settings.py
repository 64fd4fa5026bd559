"""Standardized Hypothesis settings profiles for the property tests.

Import the tier that matches the cost of one example, so the example budget
is consistent suite-wide and can be scaled globally:

* ``QUICK_SETTINGS``         -- cheap pure-python examples.
* ``STANDARD_SETTINGS``      -- one factorized-vs-reference executor
                                cross-check per example.
* ``SLOW_SETTINGS``          -- examples that run the explicit simulators.
* ``STATE_MACHINE_SETTINGS`` -- ``RuleBasedStateMachine`` runs: fewer
                                examples, each a long rule sequence.
* ``DETERMINISM_SETTINGS``   -- bit-exactness cross-checks in the ``slow``
                                lane, checked harder than the fast
                                profile's time budget allows.

The ``REPRO_PROPERTY_SCALE`` environment variable multiplies the example
counts (e.g. ``REPRO_PROPERTY_SCALE=10`` for a thorough overnight run).
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, settings

_SCALE = float(os.environ.get("REPRO_PROPERTY_SCALE", "1"))


def _profile(max_examples: int, **overrides) -> settings:
    return settings(
        max_examples=max(1, int(max_examples * _SCALE)),
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        **overrides,
    )


QUICK_SETTINGS = _profile(100)
STANDARD_SETTINGS = _profile(40)
SLOW_SETTINGS = _profile(15)
#: Stateful machines: each example is a whole rule sequence, so the
#: budget buys depth (steps per run) rather than example count.
STATE_MACHINE_SETTINGS = _profile(20, stateful_step_count=30)
#: Bit-exactness cross-checks; used only by ``slow``-marked tests.
DETERMINISM_SETTINGS = _profile(500)
