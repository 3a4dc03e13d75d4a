"""Network internals: forward-pass oracle agreement, gradient checks,
attention normalization, loss identities, and padded minibatches against
the same sequences run alone."""

import math

import numpy as np
import pytest

from kbqg import nn

from .oracles import oracle_bce_loss, oracle_forward


def tiny_params(seed=3, n_out=1, vocab=9, d_e=4, d_h=4):
    rng = np.random.default_rng(seed)
    return nn.init_params(vocab, d_e, d_h, n_out, rng)


def numeric_grads(params, ids, y, d_h, eps=1e-4):
    out = {}
    for name, p in params.items():
        num = np.zeros_like(p)
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            old = p[idx]
            p[idx] = old + eps
            lp = nn.loss_from_cache(nn.forward(params, ids, d_h), y)
            p[idx] = old - eps
            lm = nn.loss_from_cache(nn.forward(params, ids, d_h), y)
            p[idx] = old
            num[idx] = (lp - lm) / (2 * eps)
        out[name] = num
    return out


def test_forward_matches_independent_implementation():
    params = tiny_params(seed=11)
    ids = [2, 7, 1]
    cache = nn.forward(params, ids, 4)
    prob, alpha = oracle_forward(params, ids, 4)
    assert abs(cache["prob"] - prob) < 1e-10
    np.testing.assert_allclose(cache["alpha"], alpha, atol=1e-10)


def test_zero_output_head_gives_half():
    params = tiny_params(seed=5)
    params["W_out"][:] = 0.0
    params["b_out"][:] = 0.0
    cache = nn.forward(params, [1, 2, 3], 4)
    assert cache["prob"] == 0.5


def test_singleton_sequence_attention_is_one():
    params = tiny_params(seed=8)
    cache = nn.forward(params, [4], 4)
    np.testing.assert_allclose(cache["alpha"], [1.0])


def test_attention_sums_to_one_many_inputs():
    params = tiny_params(seed=21)
    rng = np.random.default_rng(0)
    for _ in range(200):
        length = int(rng.integers(1, 9))
        ids = rng.integers(0, 9, size=length)
        cache = nn.forward(params, ids, 4)
        assert abs(cache["alpha"].sum() - 1.0) <= 1e-6
        assert (cache["alpha"] >= 0).all()
        assert 0.0 < cache["prob"] < 1.0


def test_gradient_check_binary_head():
    params = tiny_params(seed=31)
    ids = [1, 4, 6, 2, 5]
    for y in (0.0, 1.0):
        cache = nn.forward(params, ids, 4)
        grads = nn.backward(params, cache, y)
        num = numeric_grads(params, ids, y, 4)
        for name in params:
            denom = np.maximum(np.abs(num[name]) + np.abs(grads[name]), 1e-6)
            rel = np.abs(num[name] - grads[name]) / denom
            assert rel.max() <= 1e-3, name


def test_gradient_check_softmax_head():
    params = tiny_params(seed=37, n_out=3)
    ids = [3, 0, 8, 2]
    cache = nn.forward(params, ids, 4)
    grads = nn.backward(params, cache, 2)
    num = numeric_grads(params, ids, 2, 4)
    for name in params:
        denom = np.maximum(np.abs(num[name]) + np.abs(grads[name]), 1e-6)
        rel = np.abs(num[name] - grads[name]) / denom
        assert rel.max() <= 1e-3, name


def test_loss_identities():
    params = tiny_params(seed=41)
    seqs = [np.array([1, 2]), np.array([3, 4, 5]), np.array([6])]
    # force confident predictions via the output bias
    params["W_out"][:] = 0.0
    params["b_out"][:] = 30.0
    assert nn.batch_loss(params, seqs, [1.0, 1.0, 1.0], 4) < 1e-9
    params["b_out"][:] = -30.0
    assert nn.batch_loss(params, seqs, [0.0, 0.0, 0.0], 4) < 1e-9
    # p = 0.5 on n examples: loss = n ln 2
    params["b_out"][:] = 0.0
    loss = nn.batch_loss(params, seqs, [1.0, 0.0, 1.0], 4)
    assert abs(loss - 3 * math.log(2)) < 1e-12


def test_batch_loss_matches_probability_oracle():
    params = tiny_params(seed=43)
    rng = np.random.default_rng(9)
    seqs = [rng.integers(0, 9, size=rng.integers(1, 7)) for _ in range(6)]
    labels = [float(rng.integers(0, 2)) for _ in range(6)]
    probs = [nn.forward(params, ids, 4)["prob"] for ids in seqs]
    expected = oracle_bce_loss(probs, labels)
    assert abs(nn.batch_loss(params, seqs, labels, 4) - expected) < 1e-10


def test_batch_grads_are_sums_of_example_grads():
    params = tiny_params(seed=47)
    seqs = [np.array([1, 2, 3]), np.array([4, 5])]
    labels = [1.0, 0.0]
    _total, grads = nn.batch_loss_and_grads(params, seqs, labels, 4)
    per = nn.zeros_like_params(params)
    for ids, y in zip(seqs, labels):
        cache = nn.forward(params, ids, 4)
        g = nn.backward(params, cache, y)
        for name in per:
            per[name] += g[name]
    for name in params:
        np.testing.assert_allclose(grads[name], per[name], atol=1e-12)


def test_adam_moves_parameters_deterministically():
    p1 = tiny_params(seed=53)
    p2 = tiny_params(seed=53)
    for params in (p1, p2):
        opt = nn.Adam(params, lr=1e-2)
        for step in range(3):
            _loss, grads = nn.batch_loss_and_grads(
                params, [np.array([1, 2, 3])], [1.0], 4)
            opt.step(grads)
    for name in p1:
        np.testing.assert_array_equal(p1[name], p2[name])


def test_adam_zero_lr_is_identity():
    params = tiny_params(seed=59)
    before = {k: v.copy() for k, v in params.items()}
    opt = nn.Adam(params, lr=0.0)
    _loss, grads = nn.batch_loss_and_grads(params, [np.array([1, 2])], [1.0], 4)
    opt.step(grads)
    for name in params:
        np.testing.assert_array_equal(params[name], before[name])


# ---------------------------------------------------------------------------
# padded, masked minibatches

# mixed lengths; id 0 (the pad id, also <entity>) at real positions,
# including a sequence of only id 0 and a length-1 sequence
MIXED = [[2, 7, 0, 5, 1], [4], [0, 0, 3], [8, 6, 1, 2, 3, 0, 4], [0]]


def test_mixed_length_batch_matches_each_sequence_alone():
    for n_out, labels in ((1, [1.0, 0.0, 1.0, 0.0, 1.0]), (3, [2, 0, 1, 1, 0])):
        params = tiny_params(seed=61, n_out=n_out)
        cache = nn.forward_batch(params, MIXED, 4)
        summed = nn.zeros_like_params(params)
        for b, (ids, y) in enumerate(zip(MIXED, labels)):
            alone = nn.forward(params, ids, 4)
            if n_out == 1:
                assert abs(cache["prob"][b] - alone["prob"]) <= 1e-12
            else:
                np.testing.assert_allclose(cache["class_probs"][b], alone["class_probs"],
                                           rtol=0, atol=1e-12)
            np.testing.assert_allclose(cache["attention"][b, :len(ids)], alone["alpha"],
                                       rtol=0, atol=1e-12)
            assert (cache["attention"][b, len(ids):] == 0.0).all()
            for name, g in nn.backward(params, alone, y).items():
                summed[name] += g
        loss, grads = nn.batch_loss_and_grads(params, MIXED, labels, 4)
        alone_loss = sum(nn.loss_from_cache(nn.forward(params, ids, 4), y)
                         for ids, y in zip(MIXED, labels))
        assert abs(loss - alone_loss) <= 1e-12
        for name in params:
            np.testing.assert_allclose(grads[name], summed[name], rtol=0, atol=1e-12,
                                       err_msg=name)


def test_gradient_check_through_padded_batch():
    for n_out, labels in ((1, [0.0, 1.0, 1.0, 0.0, 1.0]), (3, [1, 2, 0, 2, 1])):
        params = tiny_params(seed=67, n_out=n_out)
        _loss, grads = nn.batch_loss_and_grads(params, MIXED, labels, 4)
        eps = 1e-4
        for name, p in params.items():
            num = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = p[idx]
                p[idx] = old + eps
                lp = nn.batch_loss(params, MIXED, labels, 4)
                p[idx] = old - eps
                lm = nn.batch_loss(params, MIXED, labels, 4)
                p[idx] = old
                num[idx] = (lp - lm) / (2 * eps)
            denom = np.maximum(np.abs(num) + np.abs(grads[name]), 1e-6)
            assert (np.abs(num - grads[name]) / denom).max() <= 1e-3, (n_out, name)


def test_batched_forward_matches_independent_implementation():
    params = tiny_params(seed=71)
    cache = nn.forward_batch(params, MIXED, 4)
    for b, ids in enumerate(MIXED):
        prob, alpha = oracle_forward(params, ids, 4)
        assert abs(cache["prob"][b] - prob) < 1e-10
        np.testing.assert_allclose(cache["attention"][b, :len(ids)], alpha, atol=1e-10)


def test_empty_sequence_is_rejected():
    params = tiny_params(seed=73)
    with pytest.raises(ValueError):
        nn.forward_batch(params, [[1, 2], []], 4)
    with pytest.raises(ValueError):
        nn.forward_batch(params, [], 4)


# ---------------------------------------------------------------------------
# stacks of models

# one minibatch per model, each padded to its own length when run alone
STACK = [[[2, 7, 0, 5, 1], [4], [0, 0, 3]],
         [[8, 6], [1, 2, 3], [5]],
         [[0], [3, 3, 1, 2, 6, 7, 8], [4, 4]]]


def stacked_models(n_out, seed=79):
    return [tiny_params(seed=seed + j, n_out=n_out) for j in range(len(STACK))]


def stack_labels(n_out, seed=83):
    rng = np.random.default_rng(seed)
    shape = (len(STACK), len(STACK[0]))
    return rng.integers(0, 2, size=shape).astype(float) if n_out == 1 else rng.integers(
        0, n_out, size=shape)


def test_stack_matches_each_model_run_alone():
    for n_out in (1, 3):
        models = stacked_models(n_out)
        labels = stack_labels(n_out)
        params = nn.stack(models)
        padded = nn.pad(STACK)
        assert padded[0].shape == (3, 3, 7)
        cache = nn.forward_stack(params, padded, 4)
        losses = nn.stack_losses(cache, labels)
        grads = nn.backward_stack(params, cache, labels)
        for j, (model, batch, y) in enumerate(zip(models, STACK, labels)):
            alone = nn.forward_batch(model, batch, 4)
            length = max(map(len, batch))
            out = "prob" if n_out == 1 else "class_probs"
            np.testing.assert_allclose(cache[out][j], alone[out], rtol=0, atol=1e-12)
            np.testing.assert_allclose(cache["attention"][j, :, :length], alone["attention"],
                                       rtol=0, atol=1e-12)
            assert (cache["attention"][j, :, length:] == 0.0).all()
            assert abs(losses[j] - nn.loss_from_cache(alone, y)) <= 1e-12
            for name, g in nn.backward(model, alone, y).items():
                np.testing.assert_allclose(grads[name][j], g, rtol=0, atol=1e-12,
                                           err_msg=(n_out, j, name))


def test_gradient_check_through_stack():
    for n_out in (1, 3):
        params = nn.stack(stacked_models(n_out, seed=89))
        labels = stack_labels(n_out, seed=97)
        padded = nn.pad(STACK)

        def total_loss():
            return nn.stack_losses(nn.forward_stack(params, padded, 4), labels).sum()

        grads = nn.backward_stack(params, nn.forward_stack(params, padded, 4), labels)
        eps = 1e-4
        for name, p in params.items():
            num = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                old = p[idx]
                p[idx] = old + eps
                lp = total_loss()
                p[idx] = old - eps
                lm = total_loss()
                p[idx] = old
                num[idx] = (lp - lm) / (2 * eps)
            denom = np.maximum(np.abs(num) + np.abs(grads[name]), 1e-6)
            assert (np.abs(num - grads[name]) / denom).max() <= 1e-3, (n_out, name)


def test_stacked_minibatches_must_match_in_size():
    params = nn.stack(stacked_models(1))
    with pytest.raises(ValueError):
        nn.forward_stack(params, nn.pad([[[1, 2]], [[3], [4]], [[5]]]), 4)


def reference_adam(params, grad_steps, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam written per tensor, as the update formula reads."""
    m = nn.zeros_like_params(params)
    v = nn.zeros_like_params(params)
    for t, grads in enumerate(grad_steps, start=1):
        for name, p in params.items():
            g = grads[name]
            m[name] = b1 * m[name] + (1.0 - b1) * g
            v[name] = b2 * v[name] + (1.0 - b2) * g * g
            m_hat = m[name] / (1.0 - b1 ** t)
            v_hat = v[name] / (1.0 - b2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return params


def random_grad_steps(params, n, seed):
    rng = np.random.default_rng(seed)
    return [{name: rng.normal(size=p.shape) for name, p in params.items()}
            for _ in range(n)]


def test_flat_adam_matches_per_tensor_formula():
    params = nn.stack(stacked_models(3))
    expected = reference_adam({k: v.copy() for k, v in params.items()},
                              random_grad_steps(params, 6, seed=101), lr=3e-2)
    opt = nn.Adam(params, lr=3e-2)
    for grads in random_grad_steps(params, 6, seed=101):
        opt.step(grads)
    for name in params:
        assert np.shares_memory(params[name], opt.flat)
        np.testing.assert_array_equal(params[name], expected[name], err_msg=name)


def test_adam_take_continues_the_kept_models_alone():
    models = stacked_models(1)
    params = nn.stack(models)
    steps = random_grad_steps(params, 7, seed=103)
    opt = nn.Adam(params, lr=3e-2)
    for grads in steps[:4]:
        opt.step(grads)
    opt.take(np.array([0, 2]))
    for grads in steps[4:]:
        opt.step({name: g[[0, 2]] for name, g in grads.items()})
    for row, j in enumerate((0, 2)):
        alone = reference_adam({k: v.copy() for k, v in models[j].items()},
                               [{k: g[j] for k, g in grads.items()} for grads in steps],
                               lr=3e-2)
        for name in params:
            np.testing.assert_array_equal(params[name][row], alone[name], err_msg=name)
