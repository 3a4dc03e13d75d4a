"""Attention BiLSTM text classifier in plain numpy, with exact gradients.

The network embeds a token sequence, runs an LSTM in both directions,
pools the per-token states with a learned attention (a softmax over
v_att . tanh(W_att h_t + b_att)) and maps the pooled vector through a
linear output head: one sigmoid unit for binary prediction, or a softmax
layer for multi-class. The backward pass is written by hand and verified
against central finite differences in the test suite, so everything runs
in float64.

Both passes run over a minibatch of B sequences at once. The token ids
are padded on the right with id 0 to the longest length T, and a (B, T)
mask marks the real positions. The only Python loop is over time: the
LSTM works on time-major arrays (T, 2, B, d), so each step updates all B
sequences in both directions at once, and attention and the output head
work on (B, T, 2H) and (B, 2H). Masking makes each sequence's outputs
and gradients those of the sequence run alone:

- the backward-direction LSTM reads each sequence reversed within its
  own length, so in both directions the padding comes after every real
  position and never reaches a real position's state;
- attention scores at padded positions are -inf, so their weights are 0;
- the gradient reaching the LSTM states is zero at padded positions;
- the embedding gradient is taken from real tokens only (the pad id 0 is
  also the id of ``<entity>``).

``forward`` and ``backward`` on one sequence are calls with a batch of
one.

Parameter names (H = hidden units per direction, E = embedding size):
  emb (V,E);  W_f,W_b (4H,E+H);  b_f,b_b (4H,)   gate order i,f,o,g
  W_att (2H,2H); b_att,v_att (2H,);  W_out (n_out,2H); b_out (n_out,)
"""

from __future__ import annotations

import numpy as np


def sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, so exp never
    overflows."""
    ex = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, ex) / (1.0 + ex)


def softmax(x):
    """Softmax over the last axis."""
    e = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def init_params(vocab_size: int, d_e: int, d_h: int, n_out: int,
                rng: np.random.Generator) -> dict[str, np.ndarray]:
    def glorot(shape):
        bound = np.sqrt(6.0 / (shape[0] + shape[-1]))
        return rng.uniform(-bound, bound, size=shape)

    params = {
        "emb": rng.normal(0.0, 0.1, size=(vocab_size, d_e)),
        "W_f": glorot((4 * d_h, d_e + d_h)),
        "b_f": np.zeros(4 * d_h),
        "W_b": glorot((4 * d_h, d_e + d_h)),
        "b_b": np.zeros(4 * d_h),
        "W_att": glorot((2 * d_h, 2 * d_h)),
        "b_att": np.zeros(2 * d_h),
        "v_att": glorot((2 * d_h,)),
        "W_out": glorot((n_out, 2 * d_h)),
        "b_out": np.zeros(n_out),
    }
    # start with an open forget gate
    params["b_f"][d_h:2 * d_h] = 1.0
    params["b_b"][d_h:2 * d_h] = 1.0
    return params


def zeros_like_params(params):
    return {name: np.zeros_like(p) for name, p in params.items()}


def _pad(sequences):
    """Padded ids (B, T), the mask of real positions (B, T), and the
    index (B, T) that reverses each sequence within its own length (and
    maps every padded position to itself)."""
    seqs = [np.asarray(s, dtype=int) for s in sequences]
    lengths = np.array([len(s) for s in seqs])
    if not seqs or lengths.min() == 0:
        raise ValueError("empty token sequence")
    steps = np.arange(lengths.max())
    mask = steps < lengths[:, None]
    ids = np.zeros(mask.shape, dtype=int)
    ids[mask] = np.concatenate(seqs)
    rev = np.where(mask, lengths[:, None] - 1 - steps, steps)
    return ids, mask, rev


def _lstm_forward(X, W, b, d_h):
    """Both LSTM directions over time-major inputs X (T, 2, B, E), with
    weights W (2, 4H, E+H) and biases b (2, 4H): the states (T, 2, B, d_h)
    and what ``_lstm_backward`` needs."""
    T, D, B, d_e = X.shape
    zcat = np.empty((T, D, B, d_e + d_h))  # [x_t, h_{t-1}] of every step
    zcat[..., :d_e] = X
    ifo = np.empty((T, D, B, 3 * d_h))
    g = np.empty((T, D, B, d_h))
    c = np.zeros((T + 1, D, B, d_h))       # c[t] is the cell state before step t
    tc = np.empty((T, D, B, d_h))
    H = np.empty((T, D, B, d_h))
    h = np.zeros((D, B, d_h))
    Wt = W.transpose(0, 2, 1)
    b = b[:, None, :]
    for t in range(T):
        zcat[t, ..., d_e:] = h
        z = zcat[t] @ Wt + b
        ifo[t] = sigmoid(z[..., :3 * d_h])
        g[t] = np.tanh(z[..., 3 * d_h:])
        c[t + 1] = ifo[t, ..., d_h:2 * d_h] * c[t] + ifo[t, ..., :d_h] * g[t]
        tc[t] = np.tanh(c[t + 1])
        h = H[t] = ifo[t, ..., 2 * d_h:] * tc[t]
    return H, (zcat, ifo, g, c, tc)


def _lstm_backward(dH, W, cache, d_e):
    """Gradients of both LSTM directions from dL/dH (T, 2, B, d_h): the
    input gradient (T, 2, B, E), dW and db."""
    zcat, ifo, g, c, tc = cache
    T, D, B, d_h = dH.shape
    dz = np.empty((T, D, B, 4 * d_h))
    dX = np.empty((T, D, B, d_e))
    dh_next = np.zeros((D, B, d_h))
    dc_next = np.zeros((D, B, d_h))
    for t in range(T - 1, -1, -1):
        dh = dH[t] + dh_next
        dc = dh * ifo[t, ..., 2 * d_h:] * (1.0 - tc[t] * tc[t]) + dc_next
        d = dz[t]
        d[..., :d_h] = dc * g[t]                 # di
        d[..., d_h:2 * d_h] = dc * c[t]          # df
        d[..., 2 * d_h:3 * d_h] = dh * tc[t]     # do
        d[..., :3 * d_h] *= ifo[t]
        d[..., :3 * d_h] *= 1.0 - ifo[t]
        d[..., 3 * d_h:] = dc * ifo[t, ..., :d_h] * (1.0 - g[t] * g[t])
        dzcat = d @ W
        dX[t] = dzcat[..., :d_e]
        dh_next = dzcat[..., d_e:]
        dc_next = dc * ifo[t, ..., d_h:2 * d_h]
    dz = dz.transpose(1, 0, 2, 3).reshape(D, T * B, -1)
    dW = dz.transpose(0, 2, 1) @ zcat.transpose(1, 0, 2, 3).reshape(D, T * B, -1)
    return dX, dW, dz.sum(axis=1)


def forward_batch(params: dict, sequences, d_h: int) -> dict:
    """Run the network over a batch of token-id sequences.

    Returns a cache holding every intermediate needed by :func:`backward`,
    plus ``prob`` (B,) for a binary head or ``class_probs`` (B, n_out) for
    a softmax head, and the attention weights ``attention`` (B, T), zero
    at padded positions.
    """
    ids, mask, rev = _pad(sequences)
    rows = np.arange(len(ids))[:, None]
    W = np.stack([params["W_f"], params["W_b"]])
    b = np.stack([params["b_f"], params["b_b"]])
    X = params["emb"][np.stack([ids.T, ids[rows, rev].T], axis=1)]
    H, cache_lstm = _lstm_forward(X, W, b, d_h)
    H2 = np.concatenate([H[:, 0].transpose(1, 0, 2), H[:, 1][rev, rows]], axis=2)

    U = np.tanh(H2 @ params["W_att"].T + params["b_att"])
    attention = softmax(np.where(mask, U @ params["v_att"], -np.inf))
    q = (attention[:, None, :] @ H2)[:, 0]
    logits = q @ params["W_out"].T + params["b_out"]

    cache = {
        "ids": ids, "mask": mask, "rev": rev, "d_h": d_h, "W": W,
        "cache_lstm": cache_lstm, "H2": H2,
        "U": U, "attention": attention, "q": q, "logits": logits,
    }
    if logits.shape[1] == 1:
        cache["prob"] = sigmoid(logits[:, 0])
    else:
        cache["class_probs"] = softmax(logits)
    return cache


def forward(params: dict, token_ids, d_h: int) -> dict:
    """Run the network over one token-id sequence: the cache of a batch
    of one, with ``prob`` (binary head) a float, ``class_probs`` (softmax
    head) a vector, and the sequence's attention weights ``alpha``."""
    cache = forward_batch(params, [token_ids], d_h)
    cache["alpha"] = cache["attention"][0]
    if "prob" in cache:
        cache["prob"] = float(cache["prob"][0])
    else:
        cache["class_probs"] = cache["class_probs"][0]
    return cache


def loss_from_cache(cache: dict, y) -> float:
    """Stable loss summed over the batch: binary cross-entropy on the
    logit, or multi-class cross-entropy. ``y`` holds one label per
    sequence, or is a single label for a batch of one."""
    logits = cache["logits"]
    y = np.atleast_1d(y)
    if logits.shape[1] == 1:
        l = logits[:, 0]
        losses = np.maximum(l, 0.0) - l * y + np.log1p(np.exp(-np.abs(l)))
    else:
        m = logits.max(axis=1)
        lse = m + np.log(np.exp(logits - m[:, None]).sum(axis=1))
        losses = lse - logits[np.arange(len(y)), y.astype(int)]
    return float(losses.sum())


def backward(params: dict, cache: dict, y) -> dict:
    """Gradients of :func:`loss_from_cache` for every parameter tensor,
    summed over the batch."""
    d_h = cache["d_h"]
    d_e = params["emb"].shape[1]
    mask, rev, H2, U = cache["mask"], cache["rev"], cache["H2"], cache["U"]
    alpha = cache["attention"]
    logits = cache["logits"]
    rows = np.arange(len(logits))[:, None]
    y = np.atleast_1d(y)

    if logits.shape[1] == 1:
        dlogits = sigmoid(logits) - y[:, None]
    else:
        dlogits = softmax(logits)
        dlogits[rows[:, 0], y.astype(int)] -= 1.0

    grads = {"W_out": dlogits.T @ cache["q"], "b_out": dlogits.sum(axis=0)}
    dq = dlogits @ params["W_out"]

    dalpha = (H2 @ dq[:, :, None])[:, :, 0]
    dH2 = alpha[:, :, None] * dq[:, None, :]
    dscores = alpha * (dalpha - (alpha * dalpha).sum(axis=1, keepdims=True))
    grads["v_att"] = np.einsum("btk,bt->k", U, dscores)
    dpre = dscores[:, :, None] * params["v_att"] * (1.0 - U * U)
    width = 2 * d_h
    grads["W_att"] = dpre.reshape(-1, width).T @ H2.reshape(-1, width)
    grads["b_att"] = dpre.sum(axis=(0, 1))
    dH2 += dpre @ params["W_att"]
    dH2[~mask] = 0.0

    dH = np.stack([dH2[:, :, :d_h].transpose(1, 0, 2),
                   dH2[rows, rev, d_h:].transpose(1, 0, 2)], axis=1)
    dXs, dW, db = _lstm_backward(dH, cache["W"], cache["cache_lstm"], d_e)
    grads["W_f"], grads["W_b"] = dW
    grads["b_f"], grads["b_b"] = db
    dX = dXs[:, 0].transpose(1, 0, 2) + dXs[:, 1][rev, rows]

    grads["emb"] = np.zeros_like(params["emb"])
    np.add.at(grads["emb"], cache["ids"][mask], dX[mask])
    return {name: grads[name] for name in params}


def batch_loss_and_grads(params: dict, sequences, labels, d_h: int):
    """Summed loss and summed gradients over a batch of sequences."""
    cache = forward_batch(params, sequences, d_h)
    return loss_from_cache(cache, labels), backward(params, cache, labels)


def batch_loss(params: dict, sequences, labels, d_h: int) -> float:
    return loss_from_cache(forward_batch(params, sequences, d_h), labels)


class Adam:
    """Adam optimizer over a named-parameter dict, updating in place."""

    def __init__(self, params: dict, lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = zeros_like_params(params)
        self.v = zeros_like_params(params)

    def step(self, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        corr1 = 1.0 - b1 ** self.t
        corr2 = 1.0 - b2 ** self.t
        for name, p in self.params.items():
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / corr1
            v_hat = self.v[name] / corr2
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
