"""Sustain/dead-band/cooldown hysteresis, shared by QoS and alert rules.

Both control loops fold a stream of observations, each either a
*breach*, *calm*, or in the dead band between the two, into rare
transitions.  :class:`Hysteresis` holds the state they share:

* a breach (calm) observation starts the breach (calm) streak and ends
  the other one; a dead-band observation ends both, so neither streak
  may accumulate across it;
* a streak is *ripe* once it has held for its sustain window;
* after any transition, nothing is ripe for ``cooldown_s``.

The caller owns the policy (which transition a ripe streak causes, and
whether it is allowed now) and the clock: every method takes ``now``,
so fake clocks drive the state deterministically.
"""

from __future__ import annotations


class Hysteresis:
    """Breach/calm streak timestamps plus a post-transition cooldown."""

    __slots__ = (
        "breach_for_s", "calm_for_s", "cooldown_s",
        "breach_since", "calm_since", "last_transition_at",
    )

    def __init__(self, breach_for_s: float, calm_for_s: float,
                 cooldown_s: float):
        self.breach_for_s = breach_for_s
        self.calm_for_s = calm_for_s
        self.cooldown_s = cooldown_s
        self.breach_since: float | None = None
        self.calm_since: float | None = None
        self.last_transition_at = float("-inf")

    def observe(self, breached: bool, calm: bool, now: float) -> str | None:
        """Fold one observation in; returns the ripe streak, if any.

        ``"breach"`` or ``"calm"`` when that streak has held for its
        sustain window and no cooldown runs; ``None`` otherwise.  A
        ripe streak stays ripe until :meth:`transitioned` or
        :meth:`reset`, so a caller that may not transition yet (a ladder
        at its end, an alert already firing) just ignores it.
        """
        if breached:
            self.calm_since = None
            if self.breach_since is None:
                self.breach_since = now
        elif calm:
            self.breach_since = None
            if self.calm_since is None:
                self.calm_since = now
        else:
            self.reset()
            return None
        if now - self.last_transition_at < self.cooldown_s:
            return None
        if breached:
            return "breach" if now - self.breach_since >= self.breach_for_s else None
        return "calm" if now - self.calm_since >= self.calm_for_s else None

    def transitioned(self, now: float) -> None:
        """Record a transition: start the cooldown, restart both streaks."""
        self.last_transition_at = now
        self.reset()

    def reset(self) -> None:
        """End both streaks (the cooldown is left running)."""
        self.breach_since = None
        self.calm_since = None
