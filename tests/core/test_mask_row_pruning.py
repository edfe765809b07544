"""The last encoder layer runs only at the [MASK] row.

The prompt model reads one position per sequence, so the final layer
computes keys and values everywhere but its query, attention output,
residuals, LayerNorms and FFN only at ``mask_positions``, and its
dropouts draw only the mask rows they use. These tests run each
computation twice in float64, as shipped and with the final layer forced
back to the full sequence followed by a gather (``full_last_layer``), and
require agreement to 1e-12: eval logits, seeded MC-Dropout tiles,
training loss and every gradient, a whole ``PromptEM.fit``. They run on a
mixed-length (padded) batch, a fused soft-prompt view and an adapter
tenant; the benchmark's pairs all fill the 96-token budget, so this is the
padded path's only coverage.
"""

import copy
import dataclasses
import itertools
from contextlib import contextmanager

import numpy as np
import pytest

from repro.autograd import (
    AdamW, Dropout, DropoutPlan, TransformerEncoder, dropout_plan,
    gather_rows, get_default_dtype, no_grad, set_default_dtype,
)
from repro.autograd import layers
from repro.core import (
    PromptEM, PromptEMConfig, PromptModel, Verbalizer, install_adapters,
    make_template,
)
from repro.core.peft import SoftPrompt
from repro.core.templates import PromptEncoder
from repro.data import load_dataset
from repro.infer import fastpath
from repro.lm import MiniLM, load_pretrained
from repro.serve.tenants import _FusedPromptView

TOL = 1e-12


@pytest.fixture
def float64_mode():
    previous = get_default_dtype()
    set_default_dtype(np.float64)
    yield
    set_default_dtype(previous)


@contextmanager
def full_last_layer(monkeypatch):
    """Run every encoder layer on the whole sequence, then gather ``rows``
    (the behaviour before the last layer was pruned)."""
    full_hidden = fastpath.encoder_hidden

    def forward(self, x, pad_mask=None, rows=None):
        for layer in self.layers:
            x = layer(x, pad_mask=pad_mask)
        if rows is None:
            return x
        return gather_rows(x, np.arange(len(rows)), rows)

    def encoder_hidden(lm, embeds, pad_mask, rows=None):
        hidden = full_hidden(lm, embeds, pad_mask)
        return hidden if rows is None else hidden[np.arange(len(rows)), rows]

    with monkeypatch.context() as patch:
        patch.setattr(TransformerEncoder, "forward", forward)
        patch.setattr(fastpath, "encoder_hidden", encoder_hidden)
        yield


def make_model(adapters: bool = False) -> PromptModel:
    """A two-layer backbone (one full layer, then the pruned one)."""
    tiny, tokenizer = load_pretrained("minilm-tiny")
    lm = MiniLM(dataclasses.replace(tiny.config, num_layers=2, seed=3))
    model = PromptModel(lm, tokenizer,
                        make_template("t1", tokenizer, max_len=96),
                        Verbalizer.designed(tokenizer.vocab), seed=1)
    if adapters:
        rng = np.random.default_rng(2)
        for adapter in install_adapters(lm, bottleneck=4, seed=2):
            for param in adapter.parameters():
                param.data[...] += 0.1 * rng.standard_normal(param.shape)
    return model


def keep_attributes(pair, count):
    def head(record):
        values = dict(list(record.values.items())[:count])
        return dataclasses.replace(record, values=values)
    return dataclasses.replace(pair, left=head(pair.left),
                               right=head(pair.right))


@pytest.fixture(scope="module")
def pairs():
    """Full pairs (truncated at 96 tokens) mixed with 1-4 attribute ones
    (25-60 tokens), so every batch is padded."""
    test = load_dataset("REL-HETER").test
    chosen = test[:6] + test[-6:]
    return [pair if i % 3 == 0 else keep_attributes(pair, 1 + i % 4)
            for i, pair in enumerate(chosen)]


def encodings_of(model, pairs):
    encodings = [model.encode_pair(pair) for pair in pairs]
    assert len({len(e) for e in encodings}) > 1, "want a padded batch"
    return encodings


def assert_close(pruned, full):
    pruned, full = np.asarray(pruned), np.asarray(full)
    assert pruned.shape == full.shape
    assert np.max(np.abs(pruned - full), initial=0.0) <= TOL


def run_both(monkeypatch, fn):
    pruned = fn()
    with full_last_layer(monkeypatch):
        full = fn()
    return pruned, full


@pytest.mark.parametrize("adapters", [False, True])
def test_eval_logits_and_probs(float64_mode, monkeypatch, pairs, adapters):
    model = make_model(adapters).eval()
    encodings = encodings_of(model, pairs)

    def run():
        with no_grad():
            return (model.mask_logits_encoded(encodings).data,
                    model.forward_encoded(encodings).data)  # fastpath

    (logits, probs), (full_logits, full_probs) = run_both(monkeypatch, run)
    assert_close(logits, full_logits)
    assert_close(probs, full_probs)


@pytest.mark.parametrize("adapters", [False, True])
def test_seeded_mc_tiles(float64_mode, monkeypatch, pairs, adapters):
    model = make_model(adapters).train()
    encodings = encodings_of(model, pairs)
    plan = DropoutPlan(base_seed=4, pass_seeds=(11, 12, 13), batch_index=2)

    def run():
        with no_grad(), dropout_plan(plan):
            return (model.forward_encoded(encodings, tile=3).data,
                    model.mask_logits_encoded(encodings, tile=3).data)

    (probs, logits), (full_probs, full_logits) = run_both(monkeypatch, run)
    assert_close(probs, full_probs)
    assert_close(logits, full_logits)
    tiles = probs.reshape(3, len(pairs), 2)
    assert not np.allclose(tiles[0], tiles[1])  # dropout really ran


@pytest.mark.parametrize("adapters", [False, True])
def test_training_loss_and_gradients(float64_mode, monkeypatch, pairs,
                                     adapters):
    """Module-rng dropout: same loss, same gradient for every parameter,
    and every dropout generator ends in the same state."""
    model = make_model(adapters)
    encodings = encodings_of(model, pairs)
    labels = np.array([pair.label for pair in pairs])
    twins = iter([copy.deepcopy(model), copy.deepcopy(model)])

    def run():
        twin = next(twins).train()
        loss = twin.loss_encoded(encodings, labels)
        loss.backward()
        grads = {name: param.grad for name, param in twin.named_parameters()
                 if param.grad is not None}
        draws = [module.rng.random(4) for module in twin.modules()
                 if isinstance(module, Dropout)]
        return loss.item(), grads, np.stack(draws)

    (loss, grads, draws), (full_loss, full_grads, full_draws) = \
        run_both(monkeypatch, run)
    assert abs(loss - full_loss) <= TOL
    assert grads.keys() == full_grads.keys()
    # every parameter but the [CLS] pooler, which the prompt model never reads
    names = {name for name, _ in model.named_parameters()}
    assert names - grads.keys() == {"lm.pooler.weight", "lm.pooler.bias"}
    for name, grad in grads.items():
        assert_close(grad, full_grads[name])
    np.testing.assert_array_equal(draws, full_draws)


def test_fused_soft_prompt_view(float64_mode, monkeypatch, pairs):
    model = make_model()
    encodings = encodings_of(model, pairs)
    base = fastpath.prompt_matrix(model.prompt_encoder)
    other = base + 0.1 * np.random.default_rng(5).standard_normal(base.shape)
    slots = np.arange(len(pairs)) % 2
    view = _FusedPromptView(model, np.concatenate([base, other]), slots,
                            len(base))
    plan = DropoutPlan(base_seed=0, pass_seeds=(1, 2), batch_index=0)

    def run():
        with no_grad():
            model.eval()
            scored = fastpath.prompt_forward_encoded(view, encodings)
            model.train()
            with dropout_plan(plan):
                tiled = fastpath.prompt_forward_encoded(view, encodings,
                                                        tile=2)
        return scored, tiled

    (scored, tiled), (full_scored, full_tiled) = run_both(monkeypatch, run)
    assert_close(scored, full_scored)
    assert_close(tiled, full_tiled)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_numpy_prompt_encoder_twin_is_bit_identical(dtype):
    """The numpy twin equals ``encoder().data`` bit for bit, and its memo
    is served only while the weights and the default dtype stay the same:
    an in-place AdamW step, ``load_state_dict`` and a default-dtype switch
    each force a recompute."""
    previous = get_default_dtype()
    set_default_dtype(dtype)
    try:
        encoder = PromptEncoder(6, 32, rng=np.random.default_rng(0))
        rng = np.random.default_rng(1)
        for param in encoder.parameters():  # move off the initial values
            param.data[...] += 0.1 * rng.standard_normal(param.shape)

        def twin_of_reference():
            with no_grad():
                reference = encoder().data
            twin = fastpath.prompt_matrix(encoder)
            assert twin.dtype == reference.dtype
            np.testing.assert_array_equal(twin, reference)
            return twin

        twin = twin_of_reference()
        assert twin.dtype == dtype
        assert fastpath.prompt_matrix(encoder) is twin
        with pytest.raises(ValueError):
            twin[0, 0] = 0.0  # read-only: no caller can corrupt the memo

        # AdamW re-points every .data at a view of its flat buffer; the
        # values are unchanged, so the memo still holds until the step
        optimizer = AdamW(list(encoder.parameters()), lr=1e-2)
        assert fastpath.prompt_matrix(encoder) is twin
        encoder().sum().backward()
        optimizer.step()
        stepped = twin_of_reference()
        assert not np.array_equal(stepped, twin)

        state = encoder.state_dict()
        encoder.load_state_dict({name: values + 0.01
                                 for name, values in state.items()})
        loaded = twin_of_reference()
        assert not np.array_equal(loaded, stepped)

        # a default-dtype switch alone changes the LSTM state's dtype: the
        # memo is recomputed, equal to a memo-free encoder on the same
        # arrays (the Tensor path casts every op, so it is no reference
        # for mixed dtypes)
        other = np.float64 if dtype == np.float32 else np.float32
        set_default_dtype(other)
        switched = fastpath.prompt_matrix(encoder)
        assert switched is not loaded
        fresh = PromptEncoder(6, 32)
        for mine, theirs in zip(fresh.parameters(), encoder.parameters()):
            mine.data = theirs.data.copy()
        np.testing.assert_array_equal(switched,
                                      fastpath.prompt_matrix(fresh))
        # casting float32 weights to float64 keeps every value, so only
        # the dtype comparison can tell this snapshot from the last one
        encoder.load_state_dict(encoder.state_dict())
        assert twin_of_reference().dtype == other

        soft = SoftPrompt(6, 32, init=loaded)
        assert fastpath.prompt_matrix(soft) is soft.embeddings.data
    finally:
        set_default_dtype(previous)


def test_prompt_forward_leaves_memo_unchanged(pairs):
    model = make_model().eval()
    encodings = encodings_of(model, pairs)
    memo = fastpath.prompt_matrix(model.prompt_encoder)
    kept = memo.copy()
    with no_grad():
        first = fastpath.prompt_forward_encoded(model, encodings)
        second = fastpath.prompt_forward_encoded(model, encodings)
    assert fastpath.prompt_matrix(model.prompt_encoder) is memo
    np.testing.assert_array_equal(memo, kept)
    np.testing.assert_array_equal(first, second)


def test_fit_matches_full_last_layer(float64_mode, monkeypatch):
    """A short PromptEM.fit (teacher, MC-Dropout pseudo-labels, student
    with MC-EL2N pruning) lands on the same test probabilities."""
    dataset = load_dataset("REL-HETER")
    view = dataset.low_resource_count(8, seed=1)
    config = PromptEMConfig(model_name="minilm-tiny", teacher_epochs=2,
                            student_epochs=3, mc_passes=2,
                            unlabeled_cap=16, prune_frequency=2)
    test = dataset.test[:40]
    # a fit builds fresh models; pin their dropout salts to one sequence
    start = next(layers._DROPOUT_SALTS)

    def run():
        monkeypatch.setattr(layers, "_DROPOUT_SALTS", itertools.count(start))
        matcher = PromptEM(config).fit(view)
        return matcher.predict_proba(test), matcher.evaluate(test).f1

    (probs, f1), (full_probs, full_f1) = run_both(monkeypatch, run)
    assert_close(probs, full_probs)
    assert f1 == full_f1
