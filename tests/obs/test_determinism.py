"""Telemetry determinism: observing a run never changes it.

Two contracts (ISSUE acceptance criteria):

* **non-perturbation**: a fit under a full telemetry session produces
  final weights bit-identical to the same fit with telemetry off. The
  instruments consume no shared rng state (the quantile sketch has a
  private LCG) and never touch model math;
* **reproducibility**: two seeded runs of the same workload emit
  identical metric snapshots and event streams once wall-clock and
  process-identity fields are removed by :func:`repro.obs.strip_volatile`.

All runs reuse ONE model instance, restoring its initial ``state_dict``
and every ``Dropout``'s rng state between fits -- each ``Dropout`` draws a
process-global ``seed_salt`` at construction, so rebuilding the model would
change the masks and hide (or fake) a divergence.
"""

import numpy as np
import pytest

from repro.autograd import Dropout
from repro.core import PromptModel, Verbalizer, make_template
from repro.core.trainer import Trainer, TrainerConfig
from repro.data import load_dataset
from repro.lm import load_pretrained
from repro.obs import read_events, strip_volatile, telemetry_session


@pytest.fixture(scope="module")
def prompt_model():
    lm, tok = load_pretrained("minilm-tiny")
    template = make_template("t1", tok, max_len=64)
    model = PromptModel(lm, tok, template, Verbalizer.designed(tok.vocab))
    model.eval()
    return model


@pytest.fixture(scope="module")
def view():
    return load_dataset("REL-HETER").low_resource(seed=0)


def fit_once(model, view, telemetry_path=None):
    """One seeded fit from the model's current weights; returns weights.

    The fit's dropout masks come from each ``Dropout`` module's own rng,
    which advances across fits, so the rng states are restored along with
    the weights: every call starts from the same weights and masks.
    """
    initial = {k: v.copy() for k, v in model.state_dict().items()}
    dropouts = [m for m in model.modules() if isinstance(m, Dropout)]
    rng_states = [m.rng.bit_generator.state for m in dropouts]
    cfg = TrainerConfig(epochs=2, batch_size=8, seed=3)
    try:
        if telemetry_path is None:
            Trainer(model, cfg).fit(view.labeled, valid=view.test[:8])
        else:
            with telemetry_session(path=telemetry_path, trace=True):
                Trainer(model, cfg).fit(view.labeled, valid=view.test[:8])
        return {k: v.copy() for k, v in model.state_dict().items()}
    finally:
        model.load_state_dict(initial)
        for module, state in zip(dropouts, rng_states):
            module.rng.bit_generator.state = state


class TestNonPerturbation:
    def test_weights_bit_identical_with_telemetry_on(self, prompt_model,
                                                     view, tmp_path):
        weights_off = fit_once(prompt_model, view)
        weights_on = fit_once(prompt_model, view,
                              telemetry_path=tmp_path / "on.jsonl")
        assert weights_off.keys() == weights_on.keys()
        for name in weights_off:
            np.testing.assert_array_equal(weights_off[name],
                                          weights_on[name], err_msg=name)

    def test_numpy_global_rng_untouched_by_instruments(self):
        state = np.random.get_state()[1].copy()
        with telemetry_session() as tel:
            tel.metrics.counter("c").inc()
            tel.metrics.histogram("h").observe(0.5)
            tel.metrics.quantiles("q").observe_many(float(v)
                                                   for v in range(2000))
            with tel.span("s"):
                pass
        assert np.array_equal(np.random.get_state()[1], state)


class TestReproducibility:
    def test_two_seeded_runs_identical_after_stripping(self, prompt_model,
                                                       view, tmp_path):
        streams = []
        snapshots = []
        for run in range(2):
            path = tmp_path / f"run{run}.jsonl"
            with telemetry_session(path=path, trace=True) as tel:
                fit_once(prompt_model, view)
                snapshots.append(strip_volatile(tel.snapshot_metrics()))
            streams.append([strip_volatile(e) for e in read_events(path)])
        assert snapshots[0] == snapshots[1]
        assert streams[0] == streams[1]

    def test_stripped_stream_still_carries_the_run(self, prompt_model, view,
                                                   tmp_path):
        """Stripping removes timing, not substance: losses, steps and span
        structure survive for diffing."""
        path = tmp_path / "run.jsonl"
        with telemetry_session(path=path, trace=True):
            fit_once(prompt_model, view)
        stripped = [strip_volatile(e) for e in read_events(path)]
        kinds = {e["kind"] for e in stripped}
        assert {"trainer.fit.start", "trainer.step", "trainer.epoch",
                "span", "metrics.snapshot"} <= kinds
        steps = [e for e in stripped if e["kind"] == "trainer.step"]
        assert all("loss" in e and "ts" not in e for e in steps)
        spans = [e for e in stripped if e["kind"] == "span"]
        assert all("path" in e and "wall" not in e for e in spans)
