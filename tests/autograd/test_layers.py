"""Tests for Module plumbing and core layers."""

import numpy as np
import pytest

from repro.autograd import (
    MLP, Dropout, DropoutPlan, Embedding, LayerNorm, Linear, Module, Parameter,
    Sequential, Tensor, dropout_plan, load_checkpoint, save_checkpoint,
)

from .gradcheck import assert_grad_close

RNG = np.random.default_rng(3)


class TestLinear:
    def test_shapes(self):
        layer = Linear(4, 6, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((3, 4))))
        assert out.shape == (3, 6)

    def test_gradients(self):
        layer = Linear(3, 2, rng=RNG)
        x = Tensor(RNG.standard_normal((4, 3)), requires_grad=True)
        assert_grad_close(lambda: (layer(x) ** 2).sum(), [x, layer.weight, layer.bias])

    def test_no_bias(self):
        layer = Linear(3, 2, rng=RNG, bias=False)
        assert layer.bias is None
        assert len(list(layer.parameters())) == 1

    def test_batched_3d_input(self):
        layer = Linear(4, 5, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((2, 3, 4))))
        assert out.shape == (2, 3, 5)


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, rng=RNG)
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 4)

    def test_padding_idx_zeroed(self):
        emb = Embedding(10, 4, rng=RNG, padding_idx=0)
        np.testing.assert_array_equal(emb.weight.numpy()[0], np.zeros(4))

    def test_gradient_flows_to_table(self):
        emb = Embedding(6, 3, rng=RNG)
        emb(np.array([2, 2, 5])).sum().backward()
        assert emb.weight.grad is not None
        np.testing.assert_allclose(emb.weight.grad[2], [2.0] * 3)


class TestLayerNorm:
    def test_normalizes(self):
        ln = LayerNorm(8)
        x = Tensor(RNG.standard_normal((4, 8)) * 5 + 3)
        out = ln(x).numpy()
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(4), atol=1e-8)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(4), atol=1e-3)

    def test_gradients(self):
        ln = LayerNorm(5)
        x = Tensor(RNG.standard_normal((2, 5)), requires_grad=True)
        w = Tensor(RNG.standard_normal((2, 5)))
        assert_grad_close(lambda: (ln(x) * w).sum(), [x, ln.gamma, ln.beta], atol=1e-4)


class TestDropoutModule:
    def test_respects_training_flag(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((50, 50)))
        drop.train()
        assert (drop(x).numpy() == 0).any()
        drop.eval()
        np.testing.assert_array_equal(drop(x).numpy(), x.numpy())

    def test_rejects_invalid_p(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)

    def test_explicit_seed_reproducible(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        drop.train()
        x = Tensor(np.ones((20, 8)))
        a = drop(x, seed=7).numpy()
        b = drop(x, seed=7).numpy()
        c = drop(x, seed=8).numpy()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_plan_seeds_masks(self):
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        drop.train()
        x = Tensor(np.ones((10, 4)))
        with dropout_plan(DropoutPlan(base_seed=3, pass_seeds=(5,))):
            a = drop(x).numpy()
        with dropout_plan(DropoutPlan(base_seed=3, pass_seeds=(5,))):
            b = drop(x).numpy()
        with dropout_plan(DropoutPlan(base_seed=3, pass_seeds=(6,))):
            c = drop(x).numpy()
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_tiled_plan_matches_sequential_passes(self):
        # the key property behind vectorized MC-Dropout: one forward over a
        # batch tiled P times equals P sequential forwards, pass by pass
        drop = Dropout(0.3, rng=np.random.default_rng(0))
        drop.train()
        batch = np.ones((6, 5))
        seeds = (11, 12, 13)
        with dropout_plan(DropoutPlan(base_seed=1, pass_seeds=seeds)):
            tiled = drop(Tensor(np.tile(batch, (len(seeds), 1)))).numpy()
        for k, seed in enumerate(seeds):
            with dropout_plan(DropoutPlan(base_seed=1, pass_seeds=(seed,))):
                single = drop(Tensor(batch)).numpy()
            np.testing.assert_array_equal(tiled[k * 6:(k + 1) * 6], single)

    def test_plan_untileable_shape_falls_back(self):
        # shape not divisible by the tile count (e.g. shared prompt
        # embeddings of batch size 1) must still run, via the module rng
        drop = Dropout(0.5, rng=np.random.default_rng(0))
        drop.train()
        x = Tensor(np.ones((1, 4, 8)))
        with dropout_plan(DropoutPlan(base_seed=0, pass_seeds=(1, 2, 3))):
            out = drop(x)
        assert out.shape == (1, 4, 8)

    def test_plan_scoped_and_restored(self):
        from repro.autograd.layers import active_dropout_plan
        plan = DropoutPlan(base_seed=0, pass_seeds=(1,))
        assert active_dropout_plan() is None
        with dropout_plan(plan):
            assert active_dropout_plan() is plan
        assert active_dropout_plan() is None


class TestModulePlumbing:
    def _tiny(self):
        class Tiny(Module):
            def __init__(self):
                super().__init__()
                self.fc1 = Linear(3, 4, rng=RNG)
                self.fc2 = Linear(4, 2, rng=RNG)
                self.scale = Parameter(np.ones(1))

            def forward(self, x):
                return self.fc2(self.fc1(x).relu()) * self.scale

        return Tiny()

    def test_named_parameters(self):
        model = self._tiny()
        names = {name for name, _ in model.named_parameters()}
        assert names == {"scale", "fc1.weight", "fc1.bias", "fc2.weight", "fc2.bias"}

    def test_num_parameters(self):
        model = self._tiny()
        assert model.num_parameters() == 3 * 4 + 4 + 4 * 2 + 2 + 1

    def test_train_eval_recurses(self):
        model = self._tiny()
        model.eval()
        assert not model.fc1.training
        model.train()
        assert model.fc2.training

    def test_walks_keep_recursive_order(self):
        """The iterative walks visit what the recursive ones visited, in
        the same order: parents first, children in registration order."""
        def preorder(module):
            yield module
            for child in module._modules.values():
                yield from preorder(child)

        model = Sequential(self._tiny(),
                           MLP(3, [5, 4], 2, rng=RNG, dropout=0.1),
                           Sequential(Dropout(0.1), self._tiny()))
        assert [id(m) for m in model.modules()] == \
            [id(m) for m in preorder(model)]
        assert [id(p) for p in model.parameters()] == \
            [id(p) for _, p in model.named_parameters()]
        model.eval()
        assert not any(m.training for m in preorder(model))
        model.layers[2].train()
        assert [m.training for m in preorder(model)] == \
            [False] * (1 + len(list(preorder(model.layers[0])))
                       + len(list(preorder(model.layers[1])))) \
            + [True] * len(list(preorder(model.layers[2])))

    def test_state_dict_roundtrip(self):
        model = self._tiny()
        twin = self._tiny()
        twin.load_state_dict(model.state_dict())
        x = Tensor(RNG.standard_normal((2, 3)))
        np.testing.assert_allclose(model(x).numpy(), twin(x).numpy())

    def test_state_dict_strict_mismatch(self):
        model = self._tiny()
        state = model.state_dict()
        state["bogus"] = np.zeros(3)
        with pytest.raises(KeyError):
            model.load_state_dict(state)

    def test_state_dict_shape_mismatch(self):
        model = self._tiny()
        state = model.state_dict()
        state["fc1.weight"] = np.zeros((9, 9))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_clone_is_independent(self):
        model = self._tiny()
        twin = model.clone()
        twin.fc1.weight.data += 100.0
        assert not np.allclose(model.fc1.weight.numpy(), twin.fc1.weight.numpy())

    def test_zero_grad(self):
        model = self._tiny()
        model(Tensor(RNG.standard_normal((2, 3)))).sum().backward()
        assert model.fc1.weight.grad is not None
        model.zero_grad()
        assert model.fc1.weight.grad is None

    def test_checkpoint_roundtrip(self, tmp_path):
        model = self._tiny()
        path = tmp_path / "ckpt.npz"
        save_checkpoint(model, path, metadata={"epoch": 3})
        twin = self._tiny()
        meta = load_checkpoint(twin, path)
        assert meta == {"epoch": 3}
        x = Tensor(RNG.standard_normal((2, 3)))
        np.testing.assert_allclose(model(x).numpy(), twin(x).numpy())


class TestCompositeLayers:
    def test_sequential(self):
        seq = Sequential(Linear(3, 5, rng=RNG), Linear(5, 2, rng=RNG))
        assert seq(Tensor(RNG.standard_normal((4, 3)))).shape == (4, 2)
        assert len(list(seq.parameters())) == 4

    def test_mlp_forward_and_train(self):
        mlp = MLP(4, [8, 8], 2, rng=RNG, dropout=0.1)
        out = mlp(Tensor(RNG.standard_normal((6, 4))))
        assert out.shape == (6, 2)
        out.sum().backward()
        for p in mlp.parameters():
            assert p.grad is not None
