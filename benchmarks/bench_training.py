"""Training-fastpath benchmark: MLM pre-training and Trainer.fit throughput.

Times the two training loops that dominate the benchmark sweeps two ways:

* **seed loop**: faithful copies of the pre-fastpath implementations --
  the per-op graph (every embedding, encoder and LSTM op its own node,
  composed gelu and LayerNorm), per-parameter looped AdamW, python-sum
  gradient clipping, the composed ``log_softmax`` cross-entropy over
  *every* sequence position, fixed
  ``batch_size`` slices of the shuffled order, per-pair re-serialization
  each epoch and a transient validation engine (``Trainer.fit``);
* **fastpath**: the current implementations -- one graph node per
  embedding block, encoder layer and LSTM direction, flat-buffer AdamW
  with the clip folded into ``step()``, fused cross-entropy over *masked
  positions only*, token-budget length-bucketed batches, and one
  persistent engine + encoding cache per fit.

The table reports optimizer steps/sec for both arms plus a **parity**
column: both arms re-run under float64 in rng-order-preserving mode (same
batches, same masking/dropout draws), and the max-abs difference over all
final parameters is reported. Everything then differs only in summation
order, so the divergence is pure round-off (<= 1e-6 documented bound).
"""

import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import numpy as np

from _harness import MODEL_NAME, emit  # noqa: E402
from repro.autograd import (  # noqa: E402
    Tensor, functional as F, get_default_dtype, set_default_dtype, where,
)
from repro.core import PromptModel, Verbalizer, make_template  # noqa: E402
from repro.core.trainer import (  # noqa: E402
    Trainer, TrainerConfig, _class_balance_weights, predict_proba,
)
from repro.data import load_dataset  # noqa: E402
from repro.eval import bench_scale, render_table  # noqa: E402
from repro.eval.metrics import ConfusionMatrix  # noqa: E402
from repro.lm import (  # noqa: E402
    IGNORE_INDEX, LMConfig, MiniLM, PretrainConfig, load_pretrained,
    mask_tokens, pretrain,
)
from repro.lm.model import pad_batch  # noqa: E402
from repro.text import Tokenizer, build_corpus, build_vocab  # noqa: E402
from tests.autograd.reference_graph import reference_graph  # noqa: E402


# ----------------------------------------------------------------------
# Seed-style reference implementations (pre-fastpath, kept for comparison)
# ----------------------------------------------------------------------
_SQRT_2_OVER_PI = float(np.sqrt(2.0 / np.pi))


def composed_gelu(x):
    """The seed ``gelu``: seven chained elementwise Tensor ops."""
    inner = (x + (x ** 3) * 0.044715) * _SQRT_2_OVER_PI
    return x * (inner.tanh() + 1.0) * 0.5


def composed_layer_norm(x, gamma, beta, eps=1e-5):
    """The seed ``LayerNorm.forward``: mean/var/sqrt recorded op by op."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    normed = (x - mu) / (var + eps).sqrt()
    return normed * gamma + beta


@contextmanager
def seed_style_ops():
    """Record the seed's per-op graph for the duration of a reference-arm
    run.

    The embedding block, encoder layers and LSTM directions train as one
    node each (``repro.autograd.blocks``); ``reference_graph`` puts back
    their per-op forwards, and patching ``repro.autograd.functional``'s
    ``F.gelu`` / ``F.layer_norm`` attributes, which those forwards call,
    swaps the fused gelu/layer_norm nodes for the seed's composed chains.
    The ``no_grad`` inference kernels (:mod:`repro.infer.fastpath`) are
    left as they are.
    """
    fused_gelu, fused_layer_norm = F.gelu, F.layer_norm
    F.gelu = composed_gelu
    F.layer_norm = composed_layer_norm
    try:
        with reference_graph():
            yield
    finally:
        F.gelu, F.layer_norm = fused_gelu, fused_layer_norm


class LoopedAdam:
    """The seed ``Adam``: a Python loop over per-parameter moment arrays."""

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self):
        for p in self.parameters:
            p.grad = None

    def step(self):
        self._step += 1
        bc1 = 1.0 - self.beta1 ** self._step
        bc2 = 1.0 - self.beta2 ** self._step
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            m *= self.beta1
            m += (1 - self.beta1) * grad
            v *= self.beta2
            v += (1 - self.beta2) * grad ** 2
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


class LoopedAdamW(LoopedAdam):
    """The seed ``AdamW``: decoupled decay loop, then the Adam loop."""

    def __init__(self, parameters, lr=2e-5, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.01):
        super().__init__(parameters, lr=lr, betas=betas, eps=eps,
                         weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay

    def step(self):
        if self.decoupled_weight_decay:
            for p in self.parameters:
                if p.grad is not None:
                    p.data -= self.lr * self.decoupled_weight_decay * p.data
        super().step()


class LoopedSGD:
    """The seed ``SGD`` with momentum, looped per parameter."""

    def __init__(self, parameters, lr=0.01, momentum=0.0, weight_decay=0.0):
        self.parameters = list(parameters)
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self):
        for p in self.parameters:
            p.grad = None

    def step(self):
        for p, v in zip(self.parameters, self._velocity):
            if p.grad is None:
                continue
            grad = p.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p.data
            if self.momentum:
                v *= self.momentum
                v += grad
                grad = v
            p.data -= self.lr * grad


def seed_clip_grad_norm(parameters, max_norm):
    """The seed clip: python ``sum`` of per-parameter squared norms."""
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for p in params:
            p.grad *= scale
    return total


def seed_cross_entropy(logits, targets, ignore_index=None):
    """The seed loss: composed ``log_softmax`` + gather + mean graph."""
    targets = np.asarray(targets, dtype=np.int64)
    n = logits.shape[0]
    log_probs = F.log_softmax(logits, axis=-1)
    if ignore_index is not None:
        keep = targets != ignore_index
    else:
        keep = np.ones(n, dtype=bool)
    if not keep.any():
        return Tensor(0.0, requires_grad=logits.requires_grad)
    rows = np.nonzero(keep)[0]
    picked = log_probs[rows, targets[rows]]
    return -picked.sum() / len(rows)


def seed_tune_threshold(probs, labels):
    """The seed threshold search: one ConfusionMatrix per candidate cut."""
    labels = np.asarray(labels, dtype=np.int64)
    scores = probs[:, 1]
    best_threshold, best_f1 = 0.5, -1.0
    candidates = np.unique(scores)
    cuts = np.concatenate([[0.5], (candidates[:-1] + candidates[1:]) / 2.0]) \
        if len(candidates) > 1 else np.array([0.5])
    for cut in cuts:
        cm = ConfusionMatrix.from_labels(labels, (scores > cut).astype(int))
        if cm.f1 > best_f1:
            best_f1, best_threshold = cm.f1, float(cut)
    return best_threshold


def seed_style_pretrain(model, tokenizer, corpus, config):
    """The seed MLM loop: full-position vocab projection, looped optimizer.

    Returns the number of optimizer steps taken. Batch order and rng use
    match ``pretrain(..., order_preserving=True)`` exactly, so in float64
    the two runs differ only in round-off.
    """
    rng = np.random.default_rng(config.seed)
    vocab = tokenizer.vocab
    encoded = [
        tokenizer.encode(text,
                         max_len=min(config.max_len, model.config.max_len)).ids
        for text in corpus
    ]
    encoded = [ids for ids in encoded if len(ids) > 2]
    optimizer = LoopedAdamW(model.parameters(), lr=config.lr,
                            weight_decay=config.weight_decay)
    focus_ids = [vocab.id_of(t) for t in config.focus_tokens if t in vocab]
    model.train()
    steps = 0
    for _ in range(config.epochs):
        order = rng.permutation(len(encoded))
        for start in range(0, len(order), config.batch_size):
            batch = [encoded[i] for i in order[start:start + config.batch_size]]
            ids, pad_mask = pad_batch(batch, pad_id=vocab.pad_id)
            masked, labels = mask_tokens(
                ids, pad_mask, vocab_size=len(vocab), mask_id=vocab.mask_id,
                special_ids=vocab.special_ids, rng=rng,
                mask_prob=config.mask_prob, focus_ids=focus_ids,
                focus_mask_prob=config.focus_mask_prob)
            if (labels == IGNORE_INDEX).all():
                continue
            hidden = model.encode(masked, pad_mask=pad_mask)
            logits = model.mlm_logits(hidden)
            loss = seed_cross_entropy(logits.reshape(-1, len(vocab)),
                                      labels.reshape(-1),
                                      ignore_index=IGNORE_INDEX)
            optimizer.zero_grad()
            loss.backward()
            seed_clip_grad_norm(model.parameters(), config.grad_clip)
            optimizer.step()
            steps += 1
    model.eval()
    return steps


def seed_style_prompt_loss(model, pairs, labels, sample_weights=None):
    """The seed ``PromptModel`` loss: vocab projection over *every* position.

    Replicates the pre-fastpath ``mask_logits_encoded``, which ran the
    ``(B*T, d) x (d, V)`` MLM head over the whole padded batch and only
    then gathered the [MASK] rows. Row-independent ops make the gathered
    logits bit-identical to the fastpath's gather-then-project, so this is
    a pure-cost reference.
    """
    encodings = [model.encode_pair(p) for p in pairs]
    ids, pad_mask, is_prompt, prompt_idx, mask_positions = \
        model._assemble(encodings)
    batch, longest = ids.shape
    token_vecs = model.lm.token_embedding(ids)
    if model.prompt_encoder is not None and is_prompt.any():
        prompt_vecs = model.prompt_encoder()
        gathered = prompt_vecs[prompt_idx.reshape(-1)].reshape(
            batch, longest, model.lm.config.d_model)
        condition = np.broadcast_to(
            is_prompt[:, :, None], (batch, longest, model.lm.config.d_model))
        token_vecs = where(condition, gathered, token_vecs)
    positions = np.broadcast_to(np.arange(longest), ids.shape)
    embeds = model.lm.embed_from_vectors(token_vecs, positions, token_ids=ids)
    hidden = model.lm.encode(ids, pad_mask=pad_mask, inputs_embeds=embeds)
    logits = model.lm.mlm_logits(hidden)  # (B, T, V): the seed's hot spot
    mask_logits = logits[(np.arange(batch), mask_positions)]

    probs = model._class_probs(mask_logits)
    labels = np.asarray(labels, dtype=np.int64)
    picked = probs[(np.arange(len(labels)), labels)]
    logs = (picked + 1e-12).log()
    if sample_weights is not None:
        weights = np.asarray(sample_weights, dtype=np.float64)
        total = weights.sum()
        if total <= 0:
            return Tensor(0.0)
        return -(logs * Tensor(weights)).sum() / total
    return -logs.mean()


def seed_style_fit(model, train, valid, cfg, loss_fn=None):
    """The seed ``Trainer.fit``: per-pair losses (re-serializing every
    batch every epoch), looped AdamW, transient validation engine.

    ``loss_fn(model, batch, labels, sample_weights)`` defaults to
    ``model.loss``; the benchmark passes :func:`seed_style_prompt_loss` so
    the arm also pays the seed's full-position MLM projection.
    Returns the number of optimizer steps taken.
    """
    if loss_fn is None:
        def loss_fn(model, batch, labels, sample_weights=None):
            return model.loss(batch, labels, sample_weights=sample_weights)
    rng = np.random.default_rng(cfg.seed)
    train = list(train)
    weights = _class_balance_weights(train) if cfg.balance_classes else None
    optimizer = LoopedAdamW(model.parameters(), lr=cfg.lr,
                            weight_decay=cfg.weight_decay)
    best_f1, best_state, best_threshold = -1.0, None, None
    steps = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(len(train))
        model.train()
        for start in range(0, len(order), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            batch = [train[i] for i in idx]
            labels = np.array([p.label for p in batch], dtype=np.int64)
            batch_weights = weights[idx] if weights is not None else None
            loss = loss_fn(model, batch, labels,
                           sample_weights=batch_weights)
            optimizer.zero_grad()
            loss.backward()
            seed_clip_grad_norm(model.parameters(), cfg.grad_clip)
            optimizer.step()
            steps += 1
        if valid:
            probs = predict_proba(model, valid, batch_size=cfg.batch_size)
            truth = np.array([p.label for p in valid], dtype=np.int64)
            threshold = (seed_tune_threshold(probs, truth)
                         if cfg.calibrate_threshold else None)
            if threshold is None:
                preds = probs.argmax(axis=1)
            else:
                preds = (probs[:, 1] > threshold).astype(np.int64)
            f1 = ConfusionMatrix.from_labels(truth, preds).f1
            if cfg.select_best_on_valid and f1 > best_f1:
                best_f1 = f1
                best_state = model.state_dict()
                best_threshold = threshold
    if best_state is not None:
        model.load_state_dict(best_state)
    if cfg.calibrate_threshold:
        model.decision_threshold = best_threshold \
            if best_threshold is not None else 0.5
    model.eval()
    return steps


def max_param_divergence(model_a, model_b) -> float:
    """Max-abs difference over all parameters of two same-shape models."""
    return max(
        float(np.abs(np.asarray(pa.data, dtype=np.float64)
                     - np.asarray(pb.data, dtype=np.float64)).max())
        for pa, pb in zip(model_a.parameters(), model_b.parameters()))


# ----------------------------------------------------------------------
# Comparisons
# ----------------------------------------------------------------------
def run_pretrain_comparison(corpus_sentences=240, epochs=2,
                            parity_epochs=1, d_model=32, num_layers=2):
    """Time seed loop vs fastpath MLM pre-training; float64 parity check."""
    corpus = build_corpus(corpus_sentences, seed=0)
    vocab = build_vocab(corpus, max_words=600)
    lm_cfg = LMConfig(vocab_size=len(vocab), d_model=d_model,
                      num_layers=num_layers, num_heads=2, d_ff=4 * d_model,
                      max_len=64)
    tok = Tokenizer(vocab)
    cfg = PretrainConfig(epochs=epochs, batch_size=32, max_len=48,
                         lr=1e-3, seed=0, focus_tokens=("yes", "no"))

    started = time.perf_counter()
    with seed_style_ops():
        seed_steps = seed_style_pretrain(MiniLM(lm_cfg), tok, corpus, cfg)
    seed_elapsed = time.perf_counter() - started

    started = time.perf_counter()
    fast_steps = pretrain(MiniLM(lm_cfg), tok, corpus, cfg).steps
    fast_elapsed = time.perf_counter() - started

    # Parity: both arms in float64, identical batch order and rng streams.
    prev_dtype = get_default_dtype()
    set_default_dtype(np.float64)
    try:
        parity_cfg = replace(cfg, epochs=parity_epochs,
                             order_preserving=True)
        ref_model = MiniLM(lm_cfg)
        fast_model = MiniLM(lm_cfg)
        with seed_style_ops():
            seed_style_pretrain(ref_model, tok, corpus, parity_cfg)
        pretrain(fast_model, tok, corpus, parity_cfg)
        divergence = max_param_divergence(ref_model, fast_model)
    finally:
        set_default_dtype(prev_dtype)

    seed_sps = seed_steps / seed_elapsed if seed_elapsed else 0.0
    fast_sps = fast_steps / fast_elapsed if fast_elapsed else 0.0
    return {
        "sequences": len(corpus),
        "seed_steps": seed_steps,
        "fast_steps": fast_steps,
        "seed_sps": seed_sps,
        "fast_sps": fast_sps,
        "speedup": fast_sps / seed_sps if seed_sps else 0.0,
        "divergence": divergence,
    }


def run_fit_comparison(model_name=MODEL_NAME, dataset_name="REL-HETER",
                       train_cap=48, valid_cap=32, epochs=3,
                       parity_epochs=2):
    """Time seed loop vs fastpath ``Trainer.fit``; float64 parity check."""
    dataset = load_dataset(dataset_name)
    train = dataset.train[:train_cap]
    valid = dataset.valid[:valid_cap] if dataset.valid else \
        dataset.test[:valid_cap]
    cfg = TrainerConfig(epochs=epochs, batch_size=16, lr=5e-4, seed=0)

    def build_model():
        lm, tok = load_pretrained(model_name)
        template = make_template("t2", tok, max_len=128)
        return PromptModel(lm, tok, template, Verbalizer.designed(tok.vocab))

    model = build_model()
    started = time.perf_counter()
    with seed_style_ops():
        seed_steps = seed_style_fit(model, train, valid, cfg,
                                    loss_fn=seed_style_prompt_loss)
    seed_elapsed = time.perf_counter() - started

    model = build_model()
    started = time.perf_counter()
    fast_steps = Trainer(model, cfg).fit(train, valid).steps
    fast_elapsed = time.perf_counter() - started

    prev_dtype = get_default_dtype()
    set_default_dtype(np.float64)
    try:
        parity_cfg = replace(cfg, epochs=parity_epochs,
                             preserve_rng_order=True)
        ref_model = build_model()
        fast_model = build_model()
        with seed_style_ops():
            seed_style_fit(ref_model, train, valid, parity_cfg,
                           loss_fn=seed_style_prompt_loss)
        Trainer(fast_model, parity_cfg).fit(train, valid)
        divergence = max_param_divergence(ref_model, fast_model)
    finally:
        set_default_dtype(prev_dtype)

    seed_sps = seed_steps / seed_elapsed if seed_elapsed else 0.0
    fast_sps = fast_steps / fast_elapsed if fast_elapsed else 0.0
    return {
        "pairs": len(train),
        "seed_steps": seed_steps,
        "fast_steps": fast_steps,
        "seed_sps": seed_sps,
        "fast_sps": fast_sps,
        "speedup": fast_sps / seed_sps if seed_sps else 0.0,
        "divergence": divergence,
    }


def run_training_bench():
    scale = bench_scale()
    if scale.name == "smoke":
        mlm = run_pretrain_comparison(corpus_sentences=240, epochs=2)
        fit = run_fit_comparison(train_cap=48, valid_cap=32, epochs=3)
    else:
        mlm = run_pretrain_comparison(corpus_sentences=1200, epochs=3,
                                      d_model=64)
        fit = run_fit_comparison(train_cap=160, valid_cap=80, epochs=6)

    rows = []
    for name, result, size_key in (("MLM pretrain", mlm, "sequences"),
                                   ("Trainer.fit", fit, "pairs")):
        rows.append([
            name,
            result[size_key],
            result["seed_steps"],
            result["fast_steps"],
            f"{result['seed_sps']:.2f}",
            f"{result['fast_sps']:.2f}",
            f"{result['speedup']:.2f}x",
            f"{result['divergence']:.2e}",
        ])
    headers = ["Loop", "Size", "Seed steps", "Fast steps", "Seed st/s",
               "Fast st/s", "Speedup", "Parity max|d|"]
    table = render_table(
        headers, rows,
        title=f"Training fastpath vs seed-style loops (scale={scale.name}; "
              "parity in float64, rng-order-preserving mode)")
    return table, {"mlm_pretrain": mlm, "trainer_fit": fit}


def test_training(benchmark):
    table, data = benchmark.pedantic(run_training_bench, rounds=1,
                                     iterations=1)
    emit(table, "training", data=data)
