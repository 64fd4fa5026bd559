"""Shared Hypothesis strategies and tiered settings for the test suite.

One import point for every property test::

    from tests.strategies import QUICK_SETTINGS, load_signals

Settings tiers live in :mod:`tests.strategies.settings` (pick the tier
matching the cost of one example; ``REPRO_PROPERTY_SCALE`` multiplies all
example budgets).  Domain strategies for the serving stack live in
:mod:`tests.strategies.serving`; the request-lifeline vocabulary (retry
policies, deadline budgets, shed advice) in
:mod:`tests.strategies.lifelines`.
"""

from tests.strategies.alerts import alert_rules, rule_values
from tests.strategies.lifelines import (
    attempt_indices,
    deadline_budgets_ms,
    retry_after_advice_ms,
    retry_policies,
)
from tests.strategies.serving import (
    load_signals,
    qos_configs,
    request_sizes,
    rung_counts,
)
from tests.strategies.settings import (
    DETERMINISM_SETTINGS,
    QUICK_SETTINGS,
    SLOW_SETTINGS,
    STANDARD_SETTINGS,
    STATE_MACHINE_SETTINGS,
)

__all__ = [
    "DETERMINISM_SETTINGS",
    "QUICK_SETTINGS",
    "SLOW_SETTINGS",
    "STANDARD_SETTINGS",
    "STATE_MACHINE_SETTINGS",
    "alert_rules",
    "attempt_indices",
    "deadline_budgets_ms",
    "load_signals",
    "qos_configs",
    "request_sizes",
    "retry_after_advice_ms",
    "retry_policies",
    "rule_values",
    "rung_counts",
]
