"""The block nodes' gradients are bit-identical to the per-op graph's.

``repro.autograd.blocks`` runs the embedding block, each encoder layer and
each LSTM direction as one hand-differentiated node. Every test here runs
the same step twice from identical copies, once with the nodes and once
under :func:`reference_graph` (the per-op forwards the nodes replaced), and
requires ``np.array_equal`` agreement in float32 and in float64 for the
loss, every parameter gradient, the input gradient and every ``Dropout``
generator's state afterwards. Two short runs (an MLM ``pretrain`` and a
``PromptEM.fit``) must also end on identical weights and test
probabilities, and no-grad scoring must equal the recorded path.
"""

import copy
import dataclasses
import itertools

import numpy as np
import pytest

from repro.autograd import (
    BiLSTM, Dropout, DropoutPlan, Tensor, TransformerEncoder, dropout_plan,
    functional as F, gather_rows, layers, no_grad, set_default_dtype,
)
from repro.baselines.deepmatcher import DeepMatcher, _DeepMatcherNet
from repro.core import PromptEM, PromptEMConfig, PromptModel, Verbalizer, make_template
from repro.core.peft import apply_peft
from repro.data import load_dataset
from repro.lm import (
    IGNORE_INDEX, LMConfig, MiniLM, PretrainConfig, load_pretrained,
    mask_tokens, pretrain,
)
from repro.lm.model import pad_batch
from repro.text import Tokenizer, build_corpus, build_vocab

from .reference_graph import reference_graph

DTYPES = [np.float32, np.float64]


@pytest.fixture(params=DTYPES, ids=lambda dtype: dtype.__name__)
def dtype(request):
    # runs after the package's float64 autouse fixture, which restores
    # the previous default afterwards
    set_default_dtype(request.param)
    return request.param


def keep_attributes(pair, count):
    def head(record):
        values = dict(list(record.values.items())[:count])
        return dataclasses.replace(record, values=values)
    return dataclasses.replace(pair, left=head(pair.left),
                               right=head(pair.right))


@pytest.fixture(scope="module")
def full_pairs():
    """Eight pairs that all fill the 96-token budget: nothing padded."""
    return load_dataset("REL-HETER").test[:8]


@pytest.fixture(scope="module")
def mixed_pairs():
    """Full pairs mixed with 1-4 attribute ones: every batch is padded."""
    test = load_dataset("REL-HETER").test
    chosen = test[:6] + test[-6:]
    return [pair if i % 3 == 0 else keep_attributes(pair, 1 + i % 4)
            for i, pair in enumerate(chosen)]


def both_ways(model, loss_fn):
    """Run ``loss_fn(copy)`` + backward with the nodes and under the
    reference; returns the two (loss, grads, input grads, rng states)."""
    def one():
        twin = copy.deepcopy(model).train()
        loss, inputs = loss_fn(twin)
        loss.backward()
        grads = {name: param.grad for name, param in twin.named_parameters()
                 if param.grad is not None}
        states = [module.rng.bit_generator.state
                  for module in twin.modules() if isinstance(module, Dropout)]
        return loss.data, grads, [x.grad for x in inputs], states

    nodes = one()
    with reference_graph():
        reference = one()
    return nodes, reference


def assert_identical(nodes, reference):
    loss, grads, input_grads, states = nodes
    ref_loss, ref_grads, ref_input_grads, ref_states = reference
    assert loss.dtype == ref_loss.dtype
    np.testing.assert_array_equal(loss, ref_loss)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        assert grad.dtype == ref_grads[name].dtype, name
        assert np.array_equal(grad, ref_grads[name]), name
    assert len(input_grads) == len(ref_input_grads)
    for grad, ref_grad in zip(input_grads, ref_input_grads):
        assert np.array_equal(grad, ref_grad)
    assert states == ref_states


def prompt_model(peft=None) -> PromptModel:
    """A two-layer continuous-template prompt model (a full layer, then
    the ``rows`` one), with P-tuning's BiLSTM prompt encoder."""
    tiny, tokenizer = load_pretrained("minilm-tiny")
    lm = MiniLM(dataclasses.replace(tiny.config, num_layers=2, seed=3))
    model = PromptModel(lm, tokenizer,
                        make_template("t2", tokenizer, max_len=96),
                        Verbalizer.designed(tokenizer.vocab), seed=1)
    if peft is not None:
        apply_peft(model, peft, bottleneck=4, seed=2)
        rng = np.random.default_rng(2)  # move the deltas off identity
        for param in model.trainable_parameters():
            param.data[...] += 0.1 * rng.standard_normal(param.shape)
    return model


def prompt_loss(pairs):
    def run(model):
        encodings = [model.encode_pair(pair) for pair in pairs]
        labels = np.array([pair.label for pair in pairs])
        return model.loss_encoded(encodings, labels), []
    return run


def test_full_batch(dtype, full_pairs):
    model = prompt_model()
    assert len({len(model.encode_pair(p)) for p in full_pairs}) == 1
    nodes, reference = both_ways(model, prompt_loss(full_pairs))
    assert len(nodes[1]) == len(list(model.parameters())) - 2  # no pooler
    assert_identical(nodes, reference)


def test_padded_mixed_length_batch(dtype, mixed_pairs):
    model = prompt_model()
    assert len({len(model.encode_pair(p)) for p in mixed_pairs}) > 1
    assert_identical(*both_ways(model, prompt_loss(mixed_pairs)))


@pytest.mark.parametrize("peft", ["adapter", "soft_prompt"])
def test_peft_deltas_over_a_frozen_backbone(dtype, mixed_pairs, peft):
    model = prompt_model(peft)
    nodes, reference = both_ways(model, prompt_loss(mixed_pairs))
    trainable = {name for name, _ in model.named_trainable_parameters()}
    assert nodes[1].keys() == trainable  # nothing for a frozen parameter
    assert_identical(nodes, reference)


@pytest.mark.parametrize("mc", [False, True], ids=["eval", "mc_tile2"])
def test_fastpath_equals_the_recorded_path(dtype, mixed_pairs, mc):
    """No-grad scoring runs the same kernels, the last layer's query as
    the same (B, 1, D) GEMM, so its probabilities equal the recorded
    path's (nodes and per-op graph) bit for bit, in eval mode and in
    seeded MC-Dropout tiles."""
    model = prompt_model().train(mc)
    encodings = [model.encode_pair(pair) for pair in mixed_pairs]
    plan = DropoutPlan(base_seed=4, pass_seeds=(11, 12), batch_index=1)
    tile = 2 if mc else 1

    def probs():
        with dropout_plan(plan if mc else None):
            return model.forward_encoded(encodings, tile=tile).data

    with no_grad():
        fast = probs()
    recorded = probs()
    with reference_graph():
        reference = probs()
    assert np.array_equal(fast, recorded)
    assert np.array_equal(fast, reference)


@pytest.mark.parametrize("rows", [None, np.array([1, 4, 0, 2])])
def test_encoder_input_grad_with_and_without_rows(dtype, rows):
    encoder = TransformerEncoder(2, 8, 2, 16, rng=np.random.default_rng(1),
                                 dropout=0.1)
    data = np.random.default_rng(2).standard_normal((4, 5, 8))
    # the last sequence is all padding: its masked scores tie, so only the
    # masked fill's backward zeroes their grads
    pad_mask = np.array([[0, 0, 0, 1, 1], [0, 0, 0, 0, 0], [0, 0, 1, 1, 1],
                         [1, 1, 1, 1, 1]], dtype=bool)

    def run(model):
        x = Tensor(data, requires_grad=True)
        return (model(x, pad_mask=pad_mask, rows=rows) ** 2).sum(), [x]

    nodes, reference = both_ways(encoder, run)
    assert nodes[2][0] is not None
    assert_identical(nodes, reference)


def test_bilstm_batch_input_grad(dtype):
    lstm = BiLSTM(6, 5, rng=np.random.default_rng(3))
    data = np.random.default_rng(4).standard_normal((4, 7, 6))

    def run(model):
        x = Tensor(data, requires_grad=True)
        return (model(x) ** 2).sum(), [x]

    assert_identical(*both_ways(lstm, run))


def test_deepmatcher_bilstm_over_both_sides(dtype, mixed_pairs):
    """DeepMatcher's shape: one BiLSTM over a batch of left records, then
    again over the right ones, so every LSTM weight takes two nodes'
    per-step terms."""
    vocab = DeepMatcher()._build_vocab(mixed_pairs)
    net = _DeepMatcherNet(vocab, dim=16, hidden=8, max_len=20, seed=0)
    labels = np.array([pair.label for pair in mixed_pairs])
    assert_identical(*both_ways(
        net, lambda model: (model.loss(mixed_pairs, labels), [])))


def test_pretraining_mlm_batch(dtype):
    tiny, tokenizer = load_pretrained("minilm-tiny")
    lm = MiniLM(dataclasses.replace(tiny.config, num_layers=2, seed=4))
    vocab = tokenizer.vocab
    ids, pad_mask = pad_batch([tokenizer.encode(text, max_len=40).ids
                               for text in build_corpus(16, seed=0)],
                              pad_id=vocab.pad_id)
    masked, labels = mask_tokens(ids, pad_mask, len(vocab), vocab.mask_id,
                                 vocab.special_ids, np.random.default_rng(0))
    rows, cols = np.nonzero(labels != IGNORE_INDEX)

    def run(model):
        hidden = model.encode(masked, pad_mask=pad_mask)
        logits = model.mlm_logits(gather_rows(hidden, rows, cols))
        return F.cross_entropy(logits, labels[rows, cols]), []

    assert_identical(*both_ways(lm, run))


def test_short_pretrain_lands_on_identical_weights(dtype):
    corpus = build_corpus(40, seed=0)
    vocab = build_vocab(corpus, max_words=300)
    config = LMConfig(vocab_size=len(vocab), d_model=32, num_layers=2,
                      num_heads=2, d_ff=64, max_len=48)
    pre = PretrainConfig(epochs=2, batch_size=8, max_len=32, seed=0)
    nodes, reference = MiniLM(config), MiniLM(config)
    pretrain(nodes, Tokenizer(vocab), corpus, pre)
    with reference_graph():
        pretrain(reference, Tokenizer(vocab), corpus, pre)
    for (name, param), ref in zip(nodes.named_parameters(),
                                  reference.parameters()):
        assert np.array_equal(param.data, ref.data), name


def test_short_fit_lands_on_identical_probabilities(monkeypatch):
    set_default_dtype(np.float32)
    dataset = load_dataset("REL-HETER")
    view = dataset.low_resource_count(8, seed=1)
    config = PromptEMConfig(model_name="minilm-tiny", teacher_epochs=2,
                            student_epochs=2, mc_passes=2, unlabeled_cap=16,
                            prune_frequency=2)
    test = dataset.test[:40]
    # a fit builds fresh models; pin their dropout salts to one sequence
    start = next(layers._DROPOUT_SALTS)
    runs = []
    for use_reference in (False, True):
        monkeypatch.setattr(layers, "_DROPOUT_SALTS", itertools.count(start))
        if use_reference:
            with reference_graph():
                matcher = PromptEM(config).fit(view)
        else:
            matcher = PromptEM(config).fit(view)
        weights = [param.data.copy()
                   for param in matcher.model.parameters()]
        runs.append((weights, matcher.predict_proba(test)))
    (weights, probs), (ref_weights, ref_probs) = runs
    assert all(np.array_equal(a, b) for a, b in zip(weights, ref_weights))
    assert np.array_equal(probs, ref_probs)
