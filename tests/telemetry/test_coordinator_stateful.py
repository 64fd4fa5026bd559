"""Stateful property test: quorum monotonicity of the QoS coordinator.

A ``RuleBasedStateMachine`` drives a real :class:`ShardStateChannel`
directory (atomic-rename publishes, real gathers) through arbitrary
join/leave/hold/release/desire-change sequences and checks, after every
step, the properties the leaderless recommendation claims:

* the recommendation equals the **max** desired rung over live, non-held
  shards, clamped to the ladder -- and is ``None`` exactly when that
  quorum is empty;
* monotonicity: a join (or desire raise, or a release) never *lowers*
  the recommendation below the joining shard's own clamped desire, and a
  leave/hold never *raises* it (shards only ever drag the service down
  by overload, never up by disappearing);
* held shards stay visible in ``desired_by_shard`` but have no vote.
"""

from __future__ import annotations

import os
import shutil
import tempfile

from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.cluster.documents import DocumentStore
from repro.telemetry.coordinator import ShardStateChannel, recommend_level
from tests.strategies import STATE_MACHINE_SETTINGS

NUM_LEVELS = 4
SHARD_COUNT = 5
ENDPOINT = "m"

shard_indexes = st.integers(min_value=0, max_value=SHARD_COUNT - 1)
desires = st.integers(min_value=-1, max_value=NUM_LEVELS + 1)  # incl. junk


class CoordinatorMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.directory = tempfile.mkdtemp(prefix="repro-coord-machine-")
        self.channels = [
            ShardStateChannel(
                DocumentStore.for_directory(self.directory), index, SHARD_COUNT
            )
            for index in range(SHARD_COUNT)
        ]
        self.model: dict[int, dict] = {}  # index -> {"desired", "held"}

    def _recommend(self):
        states = self.channels[0].gather()
        return recommend_level(states, ENDPOINT, NUM_LEVELS)

    def _check(self):
        level, desired_by_shard = self._recommend()
        quorum = [
            entry["desired"]
            for entry in self.model.values()
            if not entry["held"]
        ]
        if not quorum:
            assert level is None, (
                f"recommendation {level} from an empty quorum"
            )
        else:
            expected = max(0, min(NUM_LEVELS - 1, max(quorum)))
            assert level == expected, (
                f"recommendation {level}, expected {expected} "
                f"from quorum {quorum}"
            )
        assert desired_by_shard == {
            index: entry["desired"] for index, entry in self.model.items()
        }
        return level

    def _publish(self, index):
        entry = self.model[index]
        self.channels[index].publish(
            {ENDPOINT: {
                "desired": entry["desired"],
                "applied": entry["desired"],
                "pressure": 0.5,
                "held": entry["held"],
            }}
        )

    # -- rules -------------------------------------------------------------
    @rule(index=shard_indexes, desired=desires)
    def join_or_update(self, index, desired):
        before, _ = self._recommend()
        is_new = index not in self.model
        held = self.model.get(index, {}).get("held", False)
        self.model[index] = {"desired": desired, "held": held}
        self._publish(index)
        after = self._check()
        if not held:
            clamped = max(0, min(NUM_LEVELS - 1, desired))
            assert after is not None and after >= clamped, (
                f"joining shard {index} desiring {desired} left the "
                f"recommendation at {after}"
            )
            if is_new and before is not None:
                # A *new* join only adds a vote to the max, never lowers
                # it.  (An update of an existing shard may lower it.)
                assert after >= before

    @rule(index=shard_indexes)
    def leave(self, index):
        if index not in self.model:
            return
        before, _ = self._recommend()
        del self.model[index]
        try:
            os.unlink(os.path.join(self.directory, f"qos-shard-{index}.json"))
        except FileNotFoundError:  # pragma: no cover
            pass
        after = self._check()
        if before is not None and after is not None:
            assert after <= before, (
                f"shard {index} leaving raised the recommendation "
                f"{before} -> {after}"
            )

    @rule(index=shard_indexes)
    def hold(self, index):
        if index not in self.model:
            return
        before, _ = self._recommend()
        self.model[index]["held"] = True
        self._publish(index)
        after = self._check()
        if before is not None and after is not None:
            assert after <= before, (
                f"holding shard {index} raised the recommendation"
            )

    @rule(index=shard_indexes)
    def release(self, index):
        if index not in self.model:
            return
        before, _ = self._recommend()
        self.model[index]["held"] = False
        self._publish(index)
        after = self._check()
        if before is not None:
            assert after is not None and after >= before, (
                f"releasing shard {index} lowered the recommendation"
            )

    def teardown(self):
        if hasattr(self, "directory"):
            shutil.rmtree(self.directory, ignore_errors=True)


TestCoordinatorMachine = CoordinatorMachine.TestCase
TestCoordinatorMachine.settings = STATE_MACHINE_SETTINGS
