"""ArrayConfig validation and helpers."""

import pytest

from repro.arch.config import UNBUFFERED_SINGLE_QUEUE, ArrayConfig, CommModel
from repro.arch.links import Link


class TestValidation:
    def test_defaults_are_sections_3_to_7(self):
        cfg = ArrayConfig()
        assert cfg.queues_per_link == 1
        assert cfg.queue_capacity == 0
        assert cfg.comm_model is CommModel.SYSTOLIC

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"queues_per_link": 0},
            {"queue_capacity": -1},
            {"hop_latency": 0},
            {"op_latency": 0},
            {"memory_access_cycles": -1},
            {"extension_penalty": -1},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            ArrayConfig(**kwargs)

    @pytest.mark.parametrize("count", [0, -2])
    def test_rejects_override_below_one(self, count):
        # Such a link would never grant a queue: the run would deadlock
        # silently instead of failing at configuration time.
        with pytest.raises(ValueError, match="queues_per_link must be >= 1"):
            ArrayConfig(link_queue_overrides={Link("C1", "C2"): count})


class TestHelpers:
    def test_link_overrides(self):
        link = Link("C1", "C2")
        cfg = ArrayConfig(queues_per_link=1, link_queue_overrides={link: 4})
        assert cfg.queues_on(link) == 4
        assert cfg.queues_on(Link("C2", "C3")) == 1

    def test_with_copies(self):
        cfg = ArrayConfig(queues_per_link=2)
        new = cfg.with_(queue_capacity=5)
        assert new.queue_capacity == 5
        assert new.queues_per_link == 2
        assert cfg.queue_capacity == 0

    def test_memory_accesses_per_word(self):
        assert ArrayConfig().memory_accesses_per_word == 0
        mem = ArrayConfig(comm_model=CommModel.MEMORY_TO_MEMORY)
        assert mem.memory_accesses_per_word == 4

    def test_canned_config(self):
        assert UNBUFFERED_SINGLE_QUEUE.queue_capacity == 0
