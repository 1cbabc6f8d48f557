"""Brute-force reference implementations used to freeze test expectations.

Everything here is deliberately slow and simple — nested Python loops and
direct formula transcriptions — so the expectations never share code with
the library under test.
"""

import math

import numpy as np

from gazemoe.data import read_pgm


def matmul_oracle(a, b):
    """Triple-loop matrix product."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def conv2d_oracle(x, w, stride=1, pad=0):
    """Direct sliding-window cross-correlation with zero padding."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    xp[:, :, pad : pad + H, pad : pad + W] = x
    oh = (H + 2 * pad - kh) // stride + 1
    ow = (W + 2 * pad - kw) // stride + 1
    out = np.zeros((B, O, oh, ow))
    for b in range(B):
        for o in range(O):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(C):
                        for di in range(kh):
                            for dj in range(kw):
                                acc += xp[b, c, i * stride + di, j * stride + dj] * w[o, c, di, dj]
                    out[b, o, i, j] = acc
    return out


def conv2d_grad_oracle(x, w, g, stride=1, pad=0):
    """Gradients ``(dx, dw)`` of ``sum(g * conv2d(x, w))`` by direct loops.

    Every (output position, kernel tap) pair adds ``g * w`` into the input
    pixel it read and ``g * x`` into the kernel weight it used.
    """
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    g = np.asarray(g, dtype=np.float64)
    B, C, H, W = x.shape
    O, _, kh, kw = w.shape
    _, _, oh, ow = g.shape
    xp = np.zeros((B, C, H + 2 * pad, W + 2 * pad))
    xp[:, :, pad : pad + H, pad : pad + W] = x
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for b in range(B):
        for o in range(O):
            for i in range(oh):
                for j in range(ow):
                    for c in range(C):
                        for di in range(kh):
                            for dj in range(kw):
                                r, q = i * stride + di, j * stride + dj
                                dxp[b, c, r, q] += g[b, o, i, j] * w[o, c, di, dj]
                                dw[o, c, di, dj] += g[b, o, i, j] * xp[b, c, r, q]
    return dxp[:, :, pad : pad + H, pad : pad + W], dw


def patch_chunks_oracle(x, kh, kw, stride, pad, oh, ow, patch_bytes):
    """Yield ``(b0, cols)`` like ``tensor._patch_chunks``, by nested slice copies.

    The whole batch is zero-padded channel-major first, and each chunk's
    [C*kh*kw, n, oh*ow] patch matrix is built from one shifted slice copy
    per kernel offset, into a fresh array per chunk. Chunks hold as many
    samples as ``patch_bytes`` has room for, at least one.
    """
    B, C, H, W = x.shape
    xp = np.zeros((C, B, H + 2 * pad, W + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + H, pad : pad + W] = x.transpose(1, 0, 2, 3)
    nb = max(1, min(B, patch_bytes // (C * kh * kw * oh * ow * x.itemsize)))
    for b0 in range(0, B, nb):
        n = min(nb, B - b0)
        cols = np.empty((C, kh, kw, n, oh, ow), dtype=x.dtype)
        for i in range(kh):
            for j in range(kw):
                cols[:, i, j] = xp[:, b0 : b0 + n, i : i + stride * oh : stride,
                                   j : j + stride * ow : stride]
        yield b0, cols.reshape(C * kh * kw, n, oh * ow)


def softmax_oracle(row):
    """Plain exp-normalization of one row (no shift trick)."""
    exps = [math.exp(v) for v in row]
    s = sum(exps)
    return [e / s for e in exps]


def composite_grad_oracle(theta, w):
    """Closed-form gradients ``(dtheta, dw)`` of
    ``mean(log_softmax(L) * sigmoid(L))`` with ``L = theta @ w``, softmax
    over each row of ``L``.

    With a = log_softmax(L), p = exp(a) and s = sigmoid(L), an m×n ``L``
    has dF/dL[i,j] = (s[i,j] - p[i,j]·Σ_t s[i,t] + a[i,j]·s[i,j]·(1 - s[i,j])) / (m·n).
    """
    theta = np.asarray(theta, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    logits = matmul_oracle(theta, w)
    m, n = logits.shape
    g = np.zeros((m, n))
    for i in range(m):
        row = [float(v) for v in logits[i]]
        top = max(row)
        lse = top + math.log(sum(math.exp(v - top) for v in row))
        sig = [1.0 / (1.0 + math.exp(-v)) for v in row]
        sig_sum = sum(sig)
        for j in range(n):
            a = row[j] - lse
            g[i, j] = (sig[j] - math.exp(a) * sig_sum
                       + a * sig[j] * (1.0 - sig[j])) / (m * n)
    return matmul_oracle(g, w.T), matmul_oracle(theta.T, g)


def cross_entropy_oracle(logits, labels):
    """Mean negative log-softmax probability of the true class."""
    logits = np.asarray(logits, dtype=np.float64)
    total = 0.0
    for row, label in zip(logits, labels):
        probs = softmax_oracle(row)
        total += -math.log(probs[label])
    return total / len(labels)


def cross_entropy_longdouble_oracle(logits, labels):
    """Cross-entropy via extended-precision shifted log-sum-exp."""
    logits = np.asarray(logits, dtype=np.longdouble)
    total = np.longdouble(0.0)
    for row, label in zip(logits, labels):
        shifted = row - row.max()
        lse = np.log(np.exp(shifted).sum())
        total += lse - shifted[label]
    return float(total / len(labels))


def auc_oracle(labels, scores):
    """Binary AUC by counting concordant pairs; ties count half."""
    pos = [s for y, s in zip(labels, scores) if y == 1]
    neg = [s for y, s in zip(labels, scores) if y == 0]
    if not pos or not neg:
        return None
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def macro_auc_oracle(labels, probs):
    """Macro average of one-vs-rest binary AUCs, skipping absent classes."""
    probs = np.asarray(probs, dtype=np.float64)
    aucs = []
    for c in range(probs.shape[1]):
        binary = [1 if y == c else 0 for y in labels]
        auc = auc_oracle(binary, probs[:, c].tolist())
        if auc is not None:
            aucs.append(auc)
    if not aucs:
        return None
    return sum(aucs) / len(aucs)


def adam_scalar_oracle(grad_fn, theta0, lr, beta1=0.9, beta2=0.999, eps=1e-8, steps=100):
    """Textbook Adam on a single scalar parameter; returns the trajectory."""
    theta = float(theta0)
    m = 0.0
    v = 0.0
    history = [theta]
    for t in range(1, steps + 1):
        g = grad_fn(theta)
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        theta -= lr * mhat / (math.sqrt(vhat) + eps)
        history.append(theta)
    return history


def load_image(path):
    """PGM file -> float64 array [1,H,W] scaled to [0,1] by maxval.

    The pixel reference for batch assembly: decoding is ``read_pgm``'s
    (tested on its own), the scaling is one division per pixel.
    """
    data, maxval = read_pgm(path)
    return (data.astype(np.float64) / maxval)[None, :, :]
