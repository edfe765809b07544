"""Integration tests: the core pipeline populates metrics and events."""

import pytest

from repro.core import PromptModel, Verbalizer, make_template
from repro.data import load_dataset
from repro.infer import EngineConfig, InferenceEngine
from repro.lm import load_pretrained
from repro.obs import telemetry_session


@pytest.fixture(scope="module")
def prompt_model():
    lm, tok = load_pretrained("minilm-tiny")
    template = make_template("t1", tok, max_len=64)
    model = PromptModel(lm, tok, template, Verbalizer.designed(tok.vocab))
    model.eval()
    return model


@pytest.fixture(scope="module")
def pairs():
    return load_dataset("REL-HETER").test[:8]


class TestEngineStats:
    def test_stats_dict_carries_cache_counters(self, prompt_model, pairs):
        engine = InferenceEngine(EngineConfig(token_budget=256,
                                              max_batch_pairs=4))
        engine.predict_proba(prompt_model, pairs)
        engine.predict_proba(prompt_model, pairs)  # second run hits the cache
        stats = engine.stats_dict()
        assert stats["cache_hits"] == len(pairs)
        assert stats["cache_misses"] == len(pairs)
        assert stats["cache_hit_rate"] == pytest.approx(0.5)
        assert stats["cache_evictions"] == 0
        assert stats["pairs"] == 2 * len(pairs)

    def test_eviction_counter_reaches_stats(self, prompt_model, pairs):
        engine = InferenceEngine(EngineConfig(token_budget=256,
                                              max_batch_pairs=4,
                                              cache_capacity=4))
        engine.predict_proba(prompt_model, pairs)  # 8 pairs through 4 slots
        assert engine.stats.cache_evictions == engine.cache.evictions > 0
        assert engine.stats_dict()["cache_evictions"] > 0

    def test_registry_gauges_and_counters(self, prompt_model, pairs):
        with telemetry_session() as tel:
            engine = InferenceEngine(EngineConfig(token_budget=256,
                                                  max_batch_pairs=4))
            engine.predict_proba(prompt_model, pairs)
            engine.predict_proba(prompt_model, pairs)
        snap = tel.snapshot_metrics()
        assert snap["engine.pairs"]["value"] == 2 * len(pairs)
        assert snap["engine.cache.hits"]["value"] == len(pairs)
        assert snap["engine.cache.misses"]["value"] == len(pairs)
        assert snap["engine.cache.hit_rate"]["value"] == pytest.approx(0.5)
        assert snap["engine.cache.entries"]["value"] == len(pairs)
        assert snap["engine.run_seconds"]["count"] == 2
