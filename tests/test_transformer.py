"""Tests for the minimal transformer: forward pass, analytic gradients,
classification rules, optimizers and checkpointing."""

import numpy as np
import pytest

from oodkit import harness
from oodkit import transformer as tfm
from oodkit.synthdata import FeatureBatch


def finite_difference_grads(model, x, dlogits, step=1e-5):
    """Central-difference gradient of sum(dlogits * logits) per parameter."""

    def objective():
        hidden, _ = tfm.forward_trunk(model, x)
        logits, _ = tfm.head_forward(model, hidden)
        return float(np.sum(dlogits * logits))

    grads = {}
    for name, p in model.params.items():
        g = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = p[idx]
            p[idx] = orig + step
            plus = objective()
            p[idx] = orig - step
            minus = objective()
            p[idx] = orig
            g[idx] = (plus - minus) / (2 * step)
        grads[name] = g
    return grads


def full_backward(model, x, dlogits):
    """Gradients of every parameter: forward_trunk -> head_forward ->
    head_backward -> trunk_backward, as one training step composes them."""
    hidden, cache = tfm.forward_trunk(model, x)
    _, g = tfm.head_forward(model, hidden)
    grads, dhidden = tfm.head_backward(model, hidden, g, dlogits)
    grads.update(tfm.trunk_backward(model, cache, dhidden))
    return grads


def max_relative_error(analytic, numeric, floor=1e-8):
    worst = 0.0
    for name in analytic:
        a, b = analytic[name], numeric[name]
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        mask = (np.abs(a) >= floor) | (np.abs(b) >= floor)
        if mask.any():
            worst = max(worst, float((np.abs(a - b) / denom)[mask].max()))
    return worst


def small_model(seed, tau=1, depth=2):
    budget = tfm.Budget(d_hat=2, h=2, m_h=1, m_V=1, r=3)
    return tfm.init_model(2, tau, depth, budget, 2, seed)


class TestForward:
    def test_zeroed_blocks_are_identity(self):
        model = small_model(0)
        for name, p in model.params.items():
            if name.startswith("blk") or name.startswith("head"):
                p[...] = 0.0
        x = np.random.default_rng(1).standard_normal((3, 2, 1))
        hidden, cache = tfm.forward_trunk(model, x)
        expected = np.einsum("ab,nbt->nat", model.params["input.W"], x) \
            + model.params["input.b"][None, :, None]
        np.testing.assert_allclose(hidden, expected, atol=1e-14)
        logits, _ = tfm.head_forward(model, hidden)
        np.testing.assert_allclose(logits, 0.0, atol=1e-14)

    def test_single_token_attention_closed_form(self):
        # with one token the softmax weight is exactly 1, so the attention
        # update reduces to h + sum_i WO_i WV_i h
        model = small_model(2, tau=1, depth=1)
        x = np.random.default_rng(3).standard_normal((1, 2, 1))
        p = model.params
        h = p["input.W"] @ x[0] + p["input.b"][:, None]
        att = h.copy()
        for i in range(model.budget.h):
            att = att + p["blk0.WO"][i] @ (p["blk0.WV"][i] @ h)
        z = p["blk0.W1"] @ att + p["blk0.b1"][:, None]
        expected = att + p["blk0.W2"] @ np.maximum(z, 0.0) \
            + p["blk0.b2"][:, None]
        hidden, _ = tfm.forward_trunk(model, x)
        np.testing.assert_allclose(hidden[0], expected, atol=1e-12)

    def test_hand_forward_two_tokens(self):
        # independent loop-based re-implementation for d_hat=1, tau=2
        budget = tfm.Budget(d_hat=1, h=1, m_h=1, m_V=1, r=1)
        model = tfm.init_model(1, 2, 1, budget, 1, seed=4)
        rng = np.random.default_rng(5)
        for p in model.params.values():
            p[...] = rng.uniform(-1, 1, size=p.shape)
        x = rng.standard_normal((1, 1, 2))
        p = model.params
        xpe = x[0] + tfm.positional_encoding(1, 2)
        h = p["input.W"] @ xpe + p["input.b"][:, None]
        k = p["blk0.WK"][0] @ h
        q = p["blk0.WQ"][0] @ h
        v = p["blk0.WV"][0] @ h
        scores = k.T @ q                       # tau x tau
        e = np.exp(scores - scores.max(axis=0, keepdims=True))
        s = e / e.sum(axis=0, keepdims=True)
        att = h + p["blk0.WO"][0] @ (v @ s)
        z = p["blk0.W1"] @ att + p["blk0.b1"][:, None]
        h_out = att + p["blk0.W2"] @ np.maximum(z, 0) + p["blk0.b2"][:, None]
        logits = np.array([
            float(p["head.W4"][c] @ (p["head.W3"][c] @ h_out
                                     + p["head.b3"][c]).T + p["head.b4"][c])
            for c in range(model.n_classes)])
        hidden, _ = tfm.forward_trunk(model, x)
        got, _ = tfm.head_forward(model, hidden)
        np.testing.assert_allclose(got[0], logits, atol=1e-10)

    def test_forward_deterministic(self):
        model = small_model(6)
        x = np.random.default_rng(7).standard_normal((4, 2, 1))
        h1, _ = tfm.forward_trunk(model, x)
        h2, _ = tfm.forward_trunk(model, x)
        np.testing.assert_array_equal(h1, h2)

    def test_shape_mismatch(self):
        model = small_model(8)
        with pytest.raises(tfm.ShapeMismatch):
            tfm.forward_trunk(model, np.zeros((2, 3, 1)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = small_model(9)
        x = np.random.default_rng(10).standard_normal((3, 2, 1))
        grads = full_backward(model, x, np.zeros((3, model.n_classes)))
        for g in grads.values():
            np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize("tau", [1, 2])
    def test_matches_finite_differences(self, tau):
        rng = np.random.default_rng(11 + tau)
        model = small_model(11 + tau, tau=tau)
        # keep pre-ReLU activations clear of zero so central differences
        # do not straddle the kink
        for _ in range(200):
            x = 3.0 * rng.standard_normal((3, 2, tau))
            _, cache = tfm.forward_trunk(model, x)
            if min(float(np.min(np.abs(layer[7])))
                   for layer in cache["layers"]) > 1e-4:
                break
        dlogits = rng.standard_normal((3, model.n_classes))
        analytic = full_backward(model, x, dlogits)
        numeric = finite_difference_grads(model, x, dlogits)
        assert max_relative_error(analytic, numeric) <= 1e-4

    def test_head_gradient_closed_form(self):
        model = small_model(13)
        rng = np.random.default_rng(14)
        hidden = rng.standard_normal((2, 2, 1))
        dlogits = rng.standard_normal((2, model.n_classes))
        logits, g = tfm.head_forward(model, hidden)
        grads, _ = tfm.head_backward(model, hidden, g, dlogits)
        # logits_k = sum_t W4[k,t] * (W3[k] @ h + b3[k,t]) + b4[k]
        w4 = model.params["head.W4"]
        expected_b4 = dlogits.sum(axis=0)
        expected_w4 = np.einsum("nk,nkt->kt", dlogits, g)
        expected_w3 = np.einsum("nk,kt,ndt->kd", dlogits, w4, hidden)
        expected_b3 = np.einsum("nk,kt->kt", dlogits, w4)
        np.testing.assert_allclose(grads["head.b4"], expected_b4, atol=1e-12)
        np.testing.assert_allclose(grads["head.W4"], expected_w4, atol=1e-12)
        np.testing.assert_allclose(grads["head.W3"], expected_w3, atol=1e-12)
        np.testing.assert_allclose(grads["head.b3"], expected_b3, atol=1e-12)


def predictions(logits):
    """The label that eval predicts for a row whose K ID logits are
    `logits` (the OOD logit below them all): a depth-0 model whose head
    logits are its biases, through the path of the test-set predictions."""
    logits = np.asarray(logits, dtype=float)
    k = logits.size
    model = tfm.init_model(1, 1, 0, tfm.Budget(1, 1, 1, 1, 1), k, seed=0)
    model.params["head.W3"][...] = 0.0
    model.params["head.b4"][...] = np.append(logits, logits.min() - 1.0)
    preds, _ = harness._score_set(model, FeatureBatch(np.zeros((1, 1)), [1]),
                                  k, "msp", None, 1.0)
    return preds[0]


class TestClassify:
    def test_classify_max_examples(self):
        assert predictions([0.1, 0.9, 0.2]) == 2
        assert predictions([-1.0, -2.0, 5.0]) == 3

    def test_tie_break_lowest_index(self):
        assert predictions([1.0, 1.0, 1.0]) == 1

    def test_invariance_shift_and_scale(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            logits = rng.standard_normal(4)
            base = predictions(logits)
            assert predictions(logits + 7.3) == base
            assert predictions(logits * 2.5) == base


def sgd_oracle(params, grads, lr, weight_decay=0.0):
    """Per-name SGD over dict parameters: steps the names in grads only."""
    for name, g in grads.items():
        p = params[name]
        p -= lr * (g + weight_decay * p)


def adamw_oracle(params, grads, state, lr=1e-4, beta1=0.9, beta2=0.999,
                 eps=1e-8, weight_decay=5e-2):
    """Per-name AdamW over dict parameters and dict moments `state["m"]`,
    `state["v"]`: steps the names in grads only."""
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    for name, g in grads.items():
        p = params[name]
        state["m"][name] = beta1 * state["m"][name] + (1 - beta1) * g
        state["v"][name] = beta2 * state["v"][name] + (1 - beta2) * g * g
        m_hat = state["m"][name] / bc1
        v_hat = state["v"][name] / bc2
        p -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p)


def flat_grad(model, grads):
    """The gradients in grads as one vector in the model's flat order."""
    return np.concatenate([grads[k].ravel() for k in model.params
                           if k in grads])


class TestOptimizers:
    def test_sgd_no_gradient_no_decay(self):
        model = small_model(16)
        before = model.flat.copy()
        tfm.sgd_step(model, np.zeros_like(model.flat), lr=0.1,
                     weight_decay=0.0)
        np.testing.assert_array_equal(model.flat, before)

    def test_sgd_scalar_update(self):
        model = small_model(17)
        model.flat = np.array([2.0])
        tfm.sgd_step(model, np.array([1.0]), lr=0.1)
        np.testing.assert_allclose(model.flat, [1.9])

    def test_adamw_first_step_textbook(self):
        model = small_model(18)
        model.flat = np.array([1.0])
        state = tfm.AdamWState(m=np.zeros(1), v=np.zeros(1))
        g = 0.5
        tfm.adamw_step(model, np.array([g]), state, lr=0.01,
                       beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.1)
        m_hat = (0.1 * g) / (1 - 0.9)
        v_hat = (0.001 * g * g) / (1 - 0.999)
        expected = 1.0 - 0.01 * (m_hat / (np.sqrt(v_hat) + 1e-8) + 0.1 * 1.0)
        np.testing.assert_allclose(model.flat, [expected], rtol=1e-12)

    def test_adamw_deterministic(self):
        runs = []
        for _ in range(2):
            model = small_model(19)
            state = tfm.adamw_init(model)
            for _ in range(3):
                tfm.adamw_step(model, np.full_like(model.flat, 0.01), state)
            runs.append(model.flat.copy())
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_steps_leave_params_without_grads_untouched(self):
        # weight decay must not move the frozen leading input map
        for step in ("sgd", "adamw"):
            model = small_model(20)
            before = {k: v.copy() for k, v in model.params.items()}
            n_in = model.params["input.W"].size + model.params["input.b"].size
            grad = np.full(model.flat.size - n_in, 0.01)
            if step == "sgd":
                tfm.sgd_step(model, grad, lr=0.1, weight_decay=0.5)
            else:
                tfm.adamw_step(model, grad, tfm.adamw_init(model), lr=0.1,
                               weight_decay=0.5)
            for k in before:
                moved = not np.array_equal(model.params[k], before[k])
                assert moved == (not k.startswith("input.")), (step, k)

    def test_params_are_views_of_the_flat_vector_in_order(self):
        model = small_model(21)
        assert model.flat.shape == (sum(v.size for v in
                                        model.params.values()),)
        np.testing.assert_array_equal(
            np.concatenate([v.ravel() for v in model.params.values()]),
            model.flat)
        for value in model.params.values():
            assert value.base is model.flat

    def test_init_draws_as_per_name_arrays(self):
        # one draw per `.W*` parameter in `param_shapes` order, zero biases
        budget = tfm.Budget(d_hat=3, h=2, m_h=2, m_V=2, r=4)
        model = tfm.init_model(2, 3, 2, budget, 3, seed=22)
        rng = np.random.Generator(np.random.Philox(22))
        for name, shape in tfm.param_shapes(2, 3, 2, budget, 3).items():
            want = (rng.uniform(-0.1, 0.1, size=shape)
                    if name.split(".")[1].startswith("W") else np.zeros(shape))
            np.testing.assert_array_equal(model.params[name], want)

    @pytest.mark.parametrize("frozen", [(), ("input.W", "input.b")])
    @pytest.mark.parametrize("step", ["sgd", "adamw"])
    def test_flat_update_bitwise_equal_to_per_name_loop(self, step, frozen):
        model = small_model(23)
        params = {k: v.copy() for k, v in model.params.items()}
        state = tfm.adamw_init(model)
        oracle = {"t": 0, **{key: {k: np.zeros_like(v)
                                   for k, v in params.items()}
                             for key in ("m", "v")}}
        rng = np.random.default_rng(23)
        for _ in range(50):
            grads = {k: rng.standard_normal(v.shape) for k, v in params.items()
                     if k not in frozen}
            if step == "sgd":
                tfm.sgd_step(model, flat_grad(model, grads), lr=0.05,
                             weight_decay=0.1)
                sgd_oracle(params, grads, lr=0.05, weight_decay=0.1)
            else:
                tfm.adamw_step(model, flat_grad(model, grads), state,
                               lr=0.05, weight_decay=0.1)
                adamw_oracle(params, grads, oracle, lr=0.05,
                             weight_decay=0.1)
        for k, value in params.items():
            np.testing.assert_array_equal(model.params[k], value)
        n_frozen = sum(params[k].size for k in frozen)
        np.testing.assert_array_equal(model.flat[:n_frozen],
                                      small_model(23).flat[:n_frozen])
        if step == "adamw":
            assert state.t == oracle["t"] == 50
            np.testing.assert_array_equal(state.m, flat_grad(model,
                                                             oracle["m"]))
            np.testing.assert_array_equal(state.v, flat_grad(model,
                                                             oracle["v"]))
            assert not state.m[:n_frozen].any()
            assert not state.v[:n_frozen].any()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        model = small_model(20, tau=2, depth=3)
        path = tmp_path / "model.npz"
        tfm.save_model(model, path)
        loaded = tfm.load_model(path)
        assert loaded.d_hat0 == model.d_hat0
        assert loaded.tau == model.tau
        assert loaded.depth == model.depth
        assert loaded.budget == model.budget
        assert loaded.n_classes == model.n_classes
        assert set(loaded.params) == set(model.params)
        for k in model.params:
            np.testing.assert_array_equal(loaded.params[k], model.params[k])
        # saving the loaded model reproduces the original file byte-for-byte
        path2 = tmp_path / "model2.npz"
        tfm.save_model(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_version_check(self, tmp_path):
        model = small_model(21)
        path = tmp_path / "model.npz"
        tfm.save_model(model, path)
        old = tfm.CHECKPOINT_VERSION
        try:
            tfm.CHECKPOINT_VERSION = old + 1
            with pytest.raises(ValueError):
                tfm.load_model(path)
        finally:
            tfm.CHECKPOINT_VERSION = old


class TestBudget:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            tfm.Budget(d_hat=0, h=1, m_h=1, m_V=1, r=1)

    def test_positional_encoding_shape(self):
        pe = tfm.positional_encoding(4, 3)
        assert pe.shape == (4, 3)
        assert np.all(np.isfinite(pe))
