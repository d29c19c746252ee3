"""Minimal reverse-mode autodiff over dense float64 numpy arrays.

An op is a function that ``OPS`` holds: each public function of this module
but ``no_grad`` and ``backward`` registers itself there with ``@_op``.
Callers call an op as ``ad.<name>``, a module attribute that a test spy
or a tracer may replace; ``OPS`` keeps the function it was defined as.

Tensors wrap numpy arrays. Every op computes its result eagerly and states
its inputs' gradients as one rule: given the output's gradient ``g``, it
yields ``(input, gradient)`` pairs. When any input requires gradients,
``_make`` records the parents plus a backward closure that adds each
pair's gradient into its input, in the order the rule yields them; no op
adds a gradient itself. An input may come in several pairs, each a
separate addition. ``backward`` replays the recorded graph in reverse
topological order, so gradients reach the leaves' ``.grad`` buffers. A
leaf's ``.grad`` may be a caller-owned array, such as a view of a flat
buffer, that gradients add into in place (``0.0 + g`` has the bits of
``g + 0.0``).

``backward`` consumes the graph: once a recorded node has passed its
gradient on, its ``.grad``, parents and closure are dropped, so each
intermediate array is freed as soon as nothing else holds it. Only leaves
(tensors no op produced) keep ``.grad``. A graph takes one backward; a
second backward that reaches a consumed node raises ``GraphConsumedError``
(rebuild the graph with a fresh forward instead).

A rule reads its inputs' ``.data`` when it runs, not copies taken at
forward time, so an op's inputs must not be changed in place between its
forward and the backward that consumes it. An op keeps an array for its
rule only if it cannot recompute it, bit for bit, from those inputs. An
op may overwrite only scratch arrays it allocated itself, never an
input's ``.data``.

Five fused ops each record one node in place of a chain of small ones.
They evaluate the chain's numpy expressions in the same order, forward and
backward, so they match it bit for bit, and keep only what their rule
reads:

- ``transformer_block``: a pre-norm residual attention sub-layer, then a
  pre-norm residual feed-forward; keeps nothing of its own: its rule
  recomputes the normalised rows, the projections, the (N, N)
  probabilities, the mid rows between the halves and the ReLU rows.
- ``mlp``: ``relu(x @ w1 + b1) @ w2 + b2``; keeps nothing of its own.
- ``attention_pool``: the (1, K) summary ``softmax(tanh(x v^T) w)^T x``
  over rows; keeps nothing of its own.
- ``linear``: ``x @ w`` plus a (1, F) bias row; keeps nothing of its own.
- ``graph_mix_row``: ``alpha * relu(sum_j c_j P_j) + R``; keeps the sign
  mask of the sum.

``cosine_gram`` gives the (m, m) cosines of m blocks as one node, where
``cosine`` records six nodes per pair.

One order differs: a fused rule yields each parameter it reads (a weight,
bias or gain) its gradient at once, where the chain's nodes did so one
by one, a ``repeat_rows`` row only after the input's subgraph. Gradients
still match bit for bit unless a parameter also feeds another call inside
its own input's subgraph; no layer of the model reuses one that way.

Shape rules are strict: elementwise ops require identical shapes, except
that a 0-d (scalar) tensor may combine with any shape. There is no other
broadcasting: a (1, F) row enters only as the explicit bias or gain of a
fused op, or tiled by ``repeat_rows``.

The model never calls ``exp``, ``log``, ``mean_all``, ``mse``, ``relu``,
``tanh``, ``transpose``, ``cosine`` or ``layer_norm``; only ``verify`` and
the tests do. They stay only because ``perfbench/tracer.py`` looks each of
them up by name.
"""
from __future__ import annotations

import contextlib

import numpy as np


class ShapeError(ValueError):
    """Operands of an op have incompatible shapes."""


class GraphConsumedError(RuntimeError):
    """``backward`` reached a node an earlier backward already consumed."""


_GRAD_ENABLED = True

OPS: dict = {}  # op name -> function; for listing the ops, never for calling them


def _op(fn):
    """Register ``fn`` in ``OPS`` under its name; return it unchanged."""
    OPS[fn.__name__] = fn
    return fn


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"


def _coerce(value) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=np.float64))


def _make(data, parents, grads) -> Tensor:
    """The output ``data``; when recording, its backward adds each ``(input, gradient)``
    pair that ``grads(g)`` yields, in that order."""
    out = Tensor(data)
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)

        def backward(g):
            for t, gt in grads(g):
                _accum(t, gt)

        out._backward = backward
    return out


def _accum(t: Tensor, g) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # g + 0.0 in one pass: the bits of g added onto zeros (a -0.0 lands as +0.0)
        t.grad = np.add(g, 0.0, out=np.empty_like(t.data))
    else:
        t.grad += g


def _operands(op: str, a, b):
    """An elementwise op's operands as tensors: of one shape, or one of them 0-d."""
    a, b = _coerce(a), _coerce(b)
    if a.data.shape != b.data.shape and a.data.ndim and b.data.ndim:
        raise ShapeError(
            f"{op}: operand shapes {a.data.shape} and {b.data.shape} differ "
            "(only scalar-with-tensor mixing is allowed)"
        )
    return a, b


def _fit(t: Tensor, g):
    """An elementwise op's gradient ``g`` reduced onto operand ``t`` (summed for a scalar)."""
    return g if np.shape(g) == t.data.shape else np.asarray(np.sum(g))


# ---------------------------------------------------------------------------
# elementwise arithmetic

@_op
def add(a, b) -> Tensor:
    a, b = _operands("add", a, b)
    return _make(a.data + b.data, (a, b), lambda g: ((a, _fit(a, g)), (b, _fit(b, g))))


@_op
def sub(a, b) -> Tensor:
    a, b = _operands("sub", a, b)
    return _make(a.data - b.data, (a, b), lambda g: ((a, _fit(a, g)), (b, _fit(b, -g))))


@_op
def mul(a, b) -> Tensor:
    a, b = _operands("mul", a, b)
    return _make(a.data * b.data, (a, b),
                 lambda g: ((a, _fit(a, g * b.data)), (b, _fit(b, g * a.data))))


@_op
def div(a, b) -> Tensor:
    a, b = _operands("div", a, b)
    return _make(a.data / b.data, (a, b), lambda g: (
        (a, _fit(a, g / b.data)), (b, _fit(b, -g * a.data / (b.data * b.data)))))


@_op
def scale(a, c: float) -> Tensor:
    """Multiply by a plain python constant (no gradient for the constant)."""
    a = _coerce(a)
    c = float(c)
    return _make(a.data * c, (a,), lambda g: ((a, g * c),))


# ---------------------------------------------------------------------------
# linear algebra

@_op
def matmul(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(
            f"matmul: expects 2-d operands, got {a.data.shape} and {b.data.shape}"
        )
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(
            f"matmul: inner dimensions differ: {a.data.shape} @ {b.data.shape}"
        )
    return _make(a.data @ b.data, (a, b), lambda g: ((a, g @ b.data.T), (b, a.data.T @ g)))


@_op
def linear(x, w, b) -> Tensor:
    """``x @ w`` plus the (1, F) row ``b`` on every row.

    One node that evaluates the same numpy expressions in the same order as
    ``add(matmul(x, w), repeat_rows(b, N))``, forward and backward, and
    keeps nothing but its inputs.
    """
    x, w, b = _coerce(x), _coerce(w), _coerce(b)
    _check_shapes("linear", x, (("w", w, (_cols(x), _cols(w))), ("bias", b, (1, _cols(w)))))

    def grads(g):
        yield x, g @ w.data.T
        yield w, x.data.T @ g
        yield b, g.sum(axis=0, keepdims=True)

    return _make(x.data @ w.data + b.data, (x, w, b), grads)


@_op
def transpose(a) -> Tensor:
    a = _coerce(a)
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expects a 2-d tensor, got {a.data.shape}")
    return _make(a.data.T.copy(), (a,), lambda g: ((a, g.T),))


@_op
def repeat_rows(a, n: int) -> Tensor:
    """Tile a (1, K) row vector into an (n, K) matrix."""
    a = _coerce(a)
    if a.data.ndim != 2 or a.data.shape[0] != 1:
        raise ShapeError(f"repeat_rows: expects shape (1, K), got {a.data.shape}")
    if n < 1:
        raise ShapeError(f"repeat_rows: n must be >= 1, got {n}")
    return _make(np.repeat(a.data, n, axis=0), (a,),
                 lambda g: ((a, g.sum(axis=0, keepdims=True)),))


@_op
def concat(parts, axis: int) -> Tensor:
    parts = [_coerce(p) for p in parts]
    if not parts:
        raise ShapeError("concat: needs at least one tensor")
    try:
        out = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: {exc}") from None

    def grads(g):
        lead, end = (slice(None),) * (axis % g.ndim), 0
        for p in parts:
            start, end = end, end + p.data.shape[axis]
            yield p, g[lead + (slice(start, end),)]

    return _make(out, tuple(parts), grads)


@_op
def narrow(a, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of ``length`` entries along ``axis``."""
    a = _coerce(a)
    extent = a.data.shape[axis]
    if start < 0 or length < 1 or start + length > extent:
        raise ShapeError(
            f"narrow: window [{start}, {start + length}) exceeds axis {axis} "
            f"of shape {a.data.shape}"
        )
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)

    def grads(g):
        buf = np.zeros_like(a.data)
        buf[idx] = g
        yield a, buf

    return _make(a.data[idx].copy(), (a,), grads)


# ---------------------------------------------------------------------------
# nonlinearities

@_op
def tanh(a) -> Tensor:
    a = _coerce(a)
    y = np.tanh(a.data)
    return _make(y, (a,), lambda g: ((a, g * (1.0 - y * y)),))


@_op
def relu(a) -> Tensor:
    a = _coerce(a)
    return _make(np.maximum(a.data, 0.0), (a,), lambda g: ((a, g * (a.data > 0.0)),))


@_op
def exp(a) -> Tensor:
    a = _coerce(a)
    y = np.exp(a.data)
    return _make(y, (a,), lambda g: ((a, g * y),))


@_op
def log(a) -> Tensor:
    a = _coerce(a)
    return _make(np.log(a.data), (a,), lambda g: ((a, g / a.data),))


@_op
def softmax(a, axis: int) -> Tensor:
    """Numerically stable softmax along ``axis`` (max subtracted first)."""
    a = _coerce(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    return _make(y, (a,), lambda g: ((a, (g - (g * y).sum(axis=axis, keepdims=True)) * y),))


def _attention_probs(q, k, c: float):
    """The transposed keys and the (N, M) row-softmax of ``c * q @ k^T``, in one scratch array."""
    k_t = k.T.copy()
    p = q @ k_t
    p *= c
    p -= p.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return k_t, p


_NORM_EPS = 1e-5


def _row_mean(a):
    """``a.mean(axis=-1, keepdims=True)``, bit for bit, without its Python-level dispatch."""
    return np.add.reduce(a, axis=-1, keepdims=True) / a.shape[-1]


def _normalize(data):
    """Zero-mean / unit-variance rows of ``data`` and the inverse deviations."""
    centered = data - _row_mean(data)
    inv = 1.0 / np.sqrt(_row_mean(centered * centered) + _NORM_EPS)
    return centered * inv, inv


def _normalize_grad(g, y, inv):
    """Gradient of ``_normalize`` w.r.t. its input, given its output ``y``."""
    return inv * (g - _row_mean(g) - y * _row_mean(g * y))


@_op
def layer_norm(a) -> Tensor:
    """Normalize each row (the last axis) to zero mean / unit variance (no affine part)."""
    a = _coerce(a)
    y, inv = _normalize(a.data)
    return _make(y, (a,), lambda g: ((a, _normalize_grad(g, y, inv)),))


def _cols(t: Tensor) -> int:
    """A matrix's column count; -1 for an array that is not 2-d."""
    return t.data.shape[1] if t.data.ndim == 2 else -1


def _check_shapes(op: str, x: Tensor, weights) -> None:
    """``x`` is (N, F) and each ``(name, tensor, shape)`` of ``weights`` has its shape.

    Each shape may name the columns of an earlier tensor in ``weights``,
    which is checked 2-d first, so no shape it reports holds a -1.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"{op}: expects a 2-d input, got {x.data.shape}")
    for name, t, shape in weights:
        if t.data.ndim != 2:
            raise ShapeError(f"{op}: {name} must be 2-d, got {t.data.shape}")
        if t.data.shape != shape:
            raise ShapeError(f"{op}: {name} must have shape {shape}, got {t.data.shape}")


def _prenorm(data, gain: Tensor, bias: Tensor):
    """The pre-norm rows ``LN(data) * gain + bias``, the normalised rows and their
    inverse deviations."""
    y, inv = _normalize(data)
    return y * gain.data + bias.data, y, inv


def _prenorm_grads(gain: Tensor, bias: Tensor, g, y, inv):
    """Yield ``gain``'s and ``bias``'s gradients from the rows' gradient ``g``; return
    the input's."""
    yield gain, (g * y).sum(axis=0, keepdims=True)
    yield bias, g.sum(axis=0, keepdims=True)
    return _normalize_grad(g * gain.data, y, inv)


def _relu_rows(x, w1: Tensor, b1: Tensor):
    """``relu(x @ w1 + b1)`` on the rows of the array ``x``, in one scratch array."""
    r = x @ w1.data
    r += b1.data
    return np.maximum(r, 0.0, out=r)


def _mlp_rows(x, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor):
    """``relu(x @ w1 + b1) @ w2 + b2`` on the rows of the array ``x``."""
    out = _relu_rows(x, w1, b1) @ w2.data
    out += b2.data
    return out


def _mlp_grads(x, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, g):
    """Yield the weights' gradients from the rows' gradient ``g``; return ``x``'s. The
    recomputed ReLU rows are ``> 0`` exactly where the pre-activation was positive."""
    r = _relu_rows(x, w1, b1)
    yield w2, r.T @ g
    yield b2, g.sum(axis=0, keepdims=True)
    gr = g @ w2.data.T
    gr *= r > 0.0
    del r
    yield w1, x.T @ gr
    yield b1, gr.sum(axis=0, keepdims=True)
    return gr @ w1.data.T


@_op
def transformer_block(x, gain1, bias1, wq, wk, wv, wo, gain2, bias2, w1, b1, w2, b2,
                      c: float) -> Tensor:
    """A pre-norm residual block: ``mid = x + Attn(LN1(x))``, then ``mid + FFN(LN2(mid))``.

    ``Attn(h) = softmax(c * q @ k^T, rows) @ v @ wo`` with ``q, k, v = h @ wq,
    h @ wk, h @ wv``; ``FFN(h) = relu(h @ w1 + b1) @ w2 + b2``; each
    ``LN(.) * gain + bias`` has (1, F) rows. One node that matches the chain
    of both sub-layers bit for bit and keeps nothing but its inputs: backward
    recomputes the attention half once, the mid rows with it, sums their
    gradient as the chain's ``mid.grad`` (the residual's, then the norm's),
    and sums the projections' gradients into ``h`` as q, then k, then v.
    """
    ts = x, gain1, bias1, wq, wk, wv, wo, gain2, bias2, w1, b1, w2, b2 = tuple(
        _coerce(t) for t in (x, gain1, bias1, wq, wk, wv, wo, gain2, bias2, w1, b1, w2, b2))
    f, d, e, hidden = _cols(x), _cols(wq), _cols(wv), _cols(w1)
    _check_shapes("transformer_block", x, (
        ("gain1", gain1, (1, f)), ("bias1", bias1, (1, f)), ("wq", wq, (f, d)),
        ("wk", wk, (f, d)), ("wv", wv, (f, e)), ("wo", wo, (e, f)),
        ("gain2", gain2, (1, f)), ("bias2", bias2, (1, f)), ("w1", w1, (f, hidden)),
        ("b1", b1, (1, hidden)), ("w2", w2, (hidden, f)), ("b2", b2, (1, f)),
    ))
    c = float(c)

    def attend():
        h, y, inv = _prenorm(x.data, gain1, bias1)
        q, k, v = h @ wq.data, h @ wk.data, h @ wv.data
        k_t, p = _attention_probs(q, k, c)
        a = p @ v
        return (h, y, inv, q, k_t, v, p, a), x.data + a @ wo.data

    _, mid = attend()

    def grads(g):
        (h, y, inv, q, k_t, v, p, a), mid = attend()
        h2, y2, inv2 = _prenorm(mid, gain2, bias2)
        del mid
        gm = np.add(g, 0.0)  # the chain's mid.grad: the residual's gradient first
        g2 = yield from _mlp_grads(h2, w1, b1, w2, b2, g)
        gm += yield from _prenorm_grads(gain2, bias2, g2, y2, inv2)
        del g2, h2, y2, inv2
        yield x, gm
        ga = gm @ wo.data.T
        yield wo, a.T @ gm
        del gm, a
        gv = p.T @ ga
        # the scores' gradient (gp - (gp * p).sum(rows)) * p * c, with gp = ga @ v^T,
        # in one scratch array: gp is computed again rather than kept beside gp * p
        gs = ga @ v.T
        gs *= p
        row = gs.sum(axis=1, keepdims=True)
        np.matmul(ga, v.T, out=gs)
        del ga
        gs -= row
        gs *= p
        del p
        gs *= c
        gq = gs @ k_t.T
        gk = np.ascontiguousarray((q.T @ gs).T)  # the layout the chain's k.grad had
        del gs
        yield wq, h.T @ gq
        yield wk, h.T @ gk
        yield wv, h.T @ gv
        gh = gq @ wq.data.T + gk @ wk.data.T + gv @ wv.data.T
        yield x, (yield from _prenorm_grads(gain1, bias1, gh, y, inv))

    h2, _, _ = _prenorm(mid, gain2, bias2)
    return _make(mid + _mlp_rows(h2, w1, b1, w2, b2), ts, grads)


@_op
def mlp(x, w1, b1, w2, b2) -> Tensor:
    """``relu(x @ w1 + b1) @ w2 + b2`` with (1, width) rows ``b1`` and ``b2``.

    One node that matches the chain ``linear(relu(linear(x, w1, b1)), w2,
    b2)`` bit for bit and keeps nothing but its inputs.
    """
    ts = x, w1, b1, w2, b2 = tuple(_coerce(t) for t in (x, w1, b1, w2, b2))
    hidden, out = _cols(w1), _cols(w2)
    _check_shapes("mlp", x, (("w1", w1, (_cols(x), hidden)), ("b1", b1, (1, hidden)),
                             ("w2", w2, (hidden, out)), ("b2", b2, (1, out))))

    def grads(g):
        yield x, (yield from _mlp_grads(x.data, w1, b1, w2, b2, g))

    return _make(_mlp_rows(x.data, w1, b1, w2, b2), ts, grads)


def _pool_weights(x, v, w):
    """An attention pool's transposed scoring basis, its tanh rows ``tanh(x @ v^T)``
    and its (N, 1) weights ``softmax(tanh rows @ w)`` over the rows."""
    v_t = v.T.copy()
    t = np.tanh(x @ v_t)
    s = t @ w
    e = np.exp(s - s.max(axis=0, keepdims=True))
    return v_t, t, e / e.sum(axis=0, keepdims=True)


@_op
def attention_pool(x, v, w) -> Tensor:
    """Attention-MIL pooling of (N, K) rows into the (1, K) summary ``a^T @ x``.

    ``a = softmax(tanh(x @ v^T) @ w)`` over the rows, with a (D, K) scoring
    basis ``v`` and (D, 1) scoring weights ``w``. One node that matches the
    chain of ``transpose``, ``matmul``, ``tanh`` and ``softmax`` nodes bit
    for bit and keeps nothing but its inputs: backward recomputes the tanh
    rows and the weights, and gives ``x`` the summary's gradient first.
    """
    x, v, w = _coerce(x), _coerce(v), _coerce(w)
    d = v.data.shape[:1]  # v's row count D, once v is known to be 2-d
    _check_shapes("attention_pool", x, (("v", v, (*d, _cols(x))), ("w", w, (*d, 1))))

    def grads(g):
        v_t, t, a = _pool_weights(x.data, v.data, w.data)
        yield x, a @ g  # an outer product: one rounding per entry, as the chain's
        ga = (g @ x.data.T).T
        gs = (ga - (ga * a).sum(axis=0, keepdims=True)) * a
        del a, ga
        yield w, t.T @ gs
        gu = (gs @ w.data.T) * (1.0 - t * t)
        del t
        yield x, gu @ v_t.T
        yield v, (x.data.T @ gu).T

    *_, a = _pool_weights(x.data, v.data, w.data)
    return _make(a.T.copy() @ x.data, (x, v, w), grads)


@_op
def graph_mix_row(projected, coeffs, residual, alpha: float) -> Tensor:
    """``alpha * relu(sum_j coeffs[j] * projected[j]) + residual`` as one node.

    Evaluates the same numpy expressions in the same order as the chain of
    ``scale``, ``add`` and ``relu`` nodes it replaces, forward and backward,
    and keeps only the sign mask of the weighted sum. The residual comes in
    already weighted (``scale(F, 1 - alpha)``): as a node of its own it
    passes its gradient on where the chain's did, after the projections'
    subgraphs, so every shared input sums its gradients in the same order.
    """
    ps, r = [_coerce(p) for p in projected], _coerce(residual)
    cs = [float(c) for c in coeffs]
    if not ps or len(cs) != len(ps):
        raise ShapeError(f"graph_mix_row: {len(ps)} projections but {len(cs)} coefficients")
    for p in ps:
        if p.data.shape != r.data.shape:
            raise ShapeError(
                f"graph_mix_row: projection {p.data.shape} and residual {r.data.shape} differ"
            )
    alpha = float(alpha)
    acc = ps[0].data * cs[0]
    for p, c in zip(ps[1:], cs[1:]):
        acc = acc + p.data * c
    mask = acc > 0.0

    def grads(g):
        gm = (g * alpha) * mask
        for p, c in zip(ps, cs):
            yield p, gm * c
        yield r, g

    return _make(np.maximum(acc, 0.0) * alpha + r.data, (*ps, r), grads)


# ---------------------------------------------------------------------------
# reductions and composites

@_op
def sum_all(a) -> Tensor:
    a = _coerce(a)
    return _make(np.asarray(a.data.sum()), (a,), lambda g: ((a, np.full_like(a.data, float(g))),))


@_op
def mean_all(a) -> Tensor:
    a = _coerce(a)
    n = a.data.size
    return _make(np.asarray(a.data.mean()), (a,),
                 lambda g: ((a, np.full_like(a.data, float(g) / n)),))


@_op
def l2norm(a) -> Tensor:
    """Euclidean norm of all entries (Frobenius norm for matrices)."""
    a = _coerce(a)
    val = float(np.sqrt((a.data * a.data).sum()))
    return _make(np.asarray(val), (a,),
                 lambda g: ((a, (float(g) / val) * a.data),) if val > 0.0 else ())


@_op
def cosine(a, b) -> Tensor:
    """Cosine similarity of two same-shaped tensors, flattened.

    A zero-norm operand makes the similarity 0 by convention (constant,
    no gradient flows through that pair).
    """
    a, b = _coerce(a), _coerce(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"cosine: shapes {a.data.shape} and {b.data.shape} differ")
    na, nb = l2norm(a), l2norm(b)
    if float(na.data) == 0.0 or float(nb.data) == 0.0:
        return Tensor(0.0)
    return div(sum_all(mul(a, b)), mul(na, nb))


def _unit_rows(blocks):
    """Each block flattened to one row, scaled to unit norm (zero rows stay zero),
    and the inverse norms (0 for a zero row)."""
    x = np.stack([b.data.ravel() for b in blocks])
    norms = np.sqrt((x * x).sum(axis=1))
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    return np.multiply(x, inv[:, None], out=x), inv


@_op
def cosine_gram(blocks) -> Tensor:
    """The (m, m) flattened (Frobenius) cosines of m same-shaped blocks, as one node.

    A zero-norm block has cosine 0 with every block, itself included, and
    no gradient flows through its entries, as with ``cosine``. Nothing but
    the inputs is kept for the gradient rule; it rebuilds the unit rows from them.
    """
    blocks = [_coerce(b) for b in blocks]
    for b in blocks[1:]:
        if b.data.shape != blocks[0].data.shape:
            raise ShapeError(
                f"cosine_gram: block shapes {blocks[0].data.shape} and {b.data.shape} differ"
            )
    u, _ = _unit_rows(blocks)

    def grads(g):
        u, inv = _unit_rows(blocks)
        gu = (g + g.T) @ u
        t = gu * u  # the one scratch array: at most three (m, N*K) arrays are alive
        np.multiply(t.sum(axis=1, keepdims=True), u, out=t)
        gu -= t
        del t, u
        gu *= inv[:, None]
        for b, row in zip(blocks, gu):
            yield b, row.reshape(b.data.shape)

    return _make(u @ u.T, tuple(blocks), grads)


@_op
def mse(a, b) -> Tensor:
    a, b = _coerce(a), _coerce(b)
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mse: shapes {a.data.shape} and {b.data.shape} differ")
    d = sub(a, b)
    return mean_all(mul(d, d))


@_op
def softmax_cross_entropy(logits, label: int) -> Tensor:
    """Cross-entropy of integer ``label`` under softmax(logits).

    Computed on the logits directly via log-sum-exp, so no probability is
    ever materialized in the loss path.
    """
    logits = _coerce(logits)
    x = logits.data.ravel()
    label = int(label)
    if not 0 <= label < x.size:
        raise ValueError(f"label {label} out of range for {x.size} logits")
    m = x.max()
    e = np.exp(x - m)
    s = e.sum()
    loss = (m + np.log(s)) - x[label]
    p = e / s

    def grads(g):
        gl = p.copy()
        gl[label] -= 1.0
        yield logits, (gl * float(g)).reshape(logits.data.shape)

    return _make(np.asarray(loss), (logits,), grads)


# ---------------------------------------------------------------------------
# backward pass

def _consumed(g) -> None:
    """Stands in for the closure of a node whose backward already ran."""
    raise GraphConsumedError(
        "backward: the graph was already consumed by an earlier backward; run the forward again"
    )


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into the leaves' ``.grad`` and consume the graph.

    ``loss`` must hold a single value. Gradients add onto whatever is
    already in a leaf's ``.grad``; callers reset leaf grads between steps.
    Each recorded node is released as soon as its closure has run, so a
    second backward through any part of the graph raises
    ``GraphConsumedError``.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        if node._backward is _consumed:
            _consumed(None)  # raises
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:  # a leaf has no rule to run; a consumed node still raises
            if parent._backward is not None and id(parent) not in visited:
                stack.append((parent, False))
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            node._backward(node.grad)
        node.grad = None
        node._parents = ()
        node._backward = _consumed
