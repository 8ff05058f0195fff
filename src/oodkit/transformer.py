"""Minimal trainable transformer: attention/FF blocks with residuals and a
(K+1)-way head, with batched forward pass and manual analytic gradients.

Blocks have no layer norm and no attention scaling; the hypothesis class is
exactly  Att(h) = h + sum_i W_O^i W_V^i h * colsoftmax((W_K^i h)^T W_Q^i h)
followed by  FF(h) = Att(h) + W2 relu(W1 Att(h) + b1 1^T) + b2 1^T,
and per-class logits  f_k = W4_k (W3_k h + b3_k)^T + b4_k.
"""

import dataclasses
import io
import json
from dataclasses import dataclass

import numpy as np

from .numerics import softmax


class ShapeMismatch(Exception):
    pass


@dataclass
class Budget:
    d_hat: int
    h: int
    m_h: int
    m_V: int
    r: int

    def __post_init__(self):
        for name in ("d_hat", "h", "m_h", "m_V", "r"):
            if getattr(self, name) < 1:
                raise ValueError(f"budget field {name} must be >= 1")


@dataclass
class TransformerModel:
    d_hat0: int
    tau: int
    depth: int
    budget: Budget
    n_classes: int          # K + 1
    params: dict            # name -> ndarray, a view into flat
    flat: np.ndarray        # the parameters' one storage vector

    def __deepcopy__(self, memo):
        """A copy whose parameters are views of its own flat vector."""
        flat, params = _allocate({k: v.shape for k, v in self.params.items()})
        for name, value in params.items():
            value[...] = self.params[name]
        return dataclasses.replace(self, budget=dataclasses.replace(
            self.budget), params=params, flat=flat)


class BadParameter(Exception):
    """A checkpoint's parameter is missing, unexpected, or not a finite
    float64 array of the shape that its meta gives."""


def param_shapes(d_hat0, tau, depth, budget, n_id_classes):
    """Name -> shape of every parameter, in `init_model`'s draw order."""
    d, hh, mh, mv, r = budget.d_hat, budget.h, budget.m_h, budget.m_V, budget.r
    c = n_id_classes + 1
    shapes = {"input.W": (d, d_hat0), "input.b": (d,)}
    for i in range(depth):
        shapes.update({f"blk{i}.WQ": (hh, mh, d), f"blk{i}.WK": (hh, mh, d),
                       f"blk{i}.WV": (hh, mv, d), f"blk{i}.WO": (hh, d, mv),
                       f"blk{i}.W1": (r, d), f"blk{i}.b1": (r,),
                       f"blk{i}.W2": (d, r), f"blk{i}.b2": (d,)})
    shapes.update({"head.W3": (c, d), "head.b3": (c, tau),
                   "head.W4": (c, tau), "head.b4": (c,)})
    return shapes


def _allocate(shapes):
    """(flat, params): one zeroed vector and, per name in `shapes` order, a
    view of its part of it."""
    ends = np.cumsum([np.prod(shape, dtype=int) for shape in shapes.values()])
    flat = np.zeros(ends[-1])
    return flat, {name: part.reshape(shape) for (name, shape), part in
                  zip(shapes.items(), np.split(flat, ends[:-1]))}


def init_model(d_hat0, tau, depth, budget, n_id_classes, seed):
    """Fresh model with uniform(-0.1, 0.1) weights (`.W*`) and zero biases
    (`.b*`), each a view into one flat vector in `param_shapes` order."""
    rng = np.random.Generator(np.random.Philox(seed))
    flat, params = _allocate(param_shapes(d_hat0, tau, depth, budget,
                                          n_id_classes))
    for name, value in params.items():
        if name.split(".")[1].startswith("W"):
            value[...] = rng.uniform(-0.1, 0.1, size=value.shape)
    return TransformerModel(d_hat0=d_hat0, tau=tau, depth=depth,
                            budget=budget, n_classes=n_id_classes + 1,
                            params=params, flat=flat)


def positional_encoding(d_hat0, tau):
    """Fixed sinusoidal encoding, added to the input when tau > 1."""
    pe = np.zeros((d_hat0, tau))
    pos = np.arange(tau, dtype=float)
    for i in range(d_hat0):
        freq = 1.0 / (10000.0 ** (2 * (i // 2) / d_hat0))
        pe[i] = np.sin(pos * freq) if i % 2 == 0 else np.cos(pos * freq)
    return pe


def forward_trunk(model, x):
    """Run the input map and all blocks on a batch x of shape (n, d0, tau).

    Returns (hidden, cache) with hidden of shape (n, d_hat, tau).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 3 or x.shape[1:] != (model.d_hat0, model.tau):
        raise ShapeMismatch(
            f"expected (n, {model.d_hat0}, {model.tau}), got {x.shape}")
    p = model.params
    xpe = x if model.tau == 1 else x + positional_encoding(model.d_hat0, model.tau)
    h = np.einsum("ab,nbt->nat", p["input.W"], xpe)
    h += p["input.b"][None, :, None]    # in place: one full-size array
    layers = []
    for i in range(model.depth):
        wq, wk = p[f"blk{i}.WQ"], p[f"blk{i}.WK"]
        wv, wo = p[f"blk{i}.WV"], p[f"blk{i}.WO"]
        w1, b1 = p[f"blk{i}.W1"], p[f"blk{i}.b1"]
        w2, b2 = p[f"blk{i}.W2"], p[f"blk{i}.b2"]
        k_ = np.einsum("hmd,ndt->nhmt", wk, h)
        q_ = np.einsum("hmd,ndt->nhmt", wq, h)
        v_ = np.einsum("hvd,ndt->nhvt", wv, h)
        scores = np.einsum("nhmt,nhms->nhts", k_, q_)
        s = softmax(scores, axis=2)
        av = np.einsum("nhvt,nhts->nhvs", v_, s)
        att = h + np.einsum("hdv,nhvs->nds", wo, av)
        z = np.einsum("rd,ndt->nrt", w1, att) + b1[None, :, None]
        relu = np.maximum(z, 0.0)
        h_next = att + np.einsum("dr,nrt->ndt", w2, relu) + b2[None, :, None]
        layers.append((h, k_, q_, v_, s, av, att, z, relu))
        h = h_next
    return h, {"xpe": xpe, "layers": layers}


def head_forward(model, hidden):
    """Classifier logits for a batch of hidden states (n, d_hat, tau)."""
    p = model.params
    g = np.einsum("kd,ndt->nkt", p["head.W3"], hidden)
    g += p["head.b3"][None]
    logits = (p["head.W4"][None] * g).sum(axis=2) + p["head.b4"][None]
    return logits, g


def head_backward(model, hidden, g, dlogits):
    """Gradients of the classifier head; also returns d(hidden)."""
    p = model.params
    grads = {
        "head.b4": dlogits.sum(axis=0),
        "head.W4": np.einsum("nk,nkt->kt", dlogits, g),
    }
    dg = dlogits[:, :, None] * p["head.W4"][None]
    grads["head.b3"] = dg.sum(axis=0)
    grads["head.W3"] = np.einsum("nkt,ndt->kd", dg, hidden)
    dhidden = np.einsum("kd,nkt->ndt", p["head.W3"], dg)
    return grads, dhidden


def trunk_backward(model, cache, dhidden):
    """Gradients of the input map and all blocks given d(hidden)."""
    p = model.params
    grads = {}
    dh = dhidden
    for i in reversed(range(model.depth)):
        h_in, k_, q_, v_, s, av, att, z, relu = cache["layers"][i]
        w1, w2 = p[f"blk{i}.W1"], p[f"blk{i}.W2"]
        wq, wk = p[f"blk{i}.WQ"], p[f"blk{i}.WK"]
        wv, wo = p[f"blk{i}.WV"], p[f"blk{i}.WO"]
        dout = dh
        grads[f"blk{i}.b2"] = dout.sum(axis=(0, 2))
        grads[f"blk{i}.W2"] = np.einsum("ndt,nrt->dr", dout, relu)
        drelu = np.einsum("dr,ndt->nrt", w2, dout) * (z > 0)
        grads[f"blk{i}.W1"] = np.einsum("nrt,ndt->rd", drelu, att)
        grads[f"blk{i}.b1"] = drelu.sum(axis=(0, 2))
        datt = dout + np.einsum("rd,nrt->ndt", w1, drelu)
        grads[f"blk{i}.WO"] = np.einsum("nds,nhvs->hdv", datt, av)
        dav = np.einsum("hdv,nds->nhvs", wo, datt)
        dv_ = np.einsum("nhvs,nhts->nhvt", dav, s)
        ds = np.einsum("nhvt,nhvs->nhts", v_, dav)
        dscores = s * (ds - (s * ds).sum(axis=2, keepdims=True))
        dk_ = np.einsum("nhms,nhts->nhmt", q_, dscores)
        dq_ = np.einsum("nhmt,nhts->nhms", k_, dscores)
        grads[f"blk{i}.WK"] = np.einsum("nhmt,ndt->hmd", dk_, h_in)
        grads[f"blk{i}.WQ"] = np.einsum("nhmt,ndt->hmd", dq_, h_in)
        grads[f"blk{i}.WV"] = np.einsum("nhvt,ndt->hvd", dv_, h_in)
        dh = (datt
              + np.einsum("hmd,nhmt->ndt", wk, dk_)
              + np.einsum("hmd,nhmt->ndt", wq, dq_)
              + np.einsum("hvd,nhvt->ndt", wv, dv_))
    grads["input.W"] = np.einsum("nat,nbt->ab", dh, cache["xpe"])
    grads["input.b"] = dh.sum(axis=(0, 2))
    return grads


def sgd_step(model, grad, lr, weight_decay=0.0):
    """Updates the last grad.size entries of model.flat; the rest stay."""
    p = model.flat[model.flat.size - grad.size:]
    p -= lr * (grad + weight_decay * p)
    return model


@dataclass
class AdamWState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adamw_init(model):
    return AdamWState(m=np.zeros_like(model.flat), v=np.zeros_like(model.flat))


def adamw_step(model, grad, state, lr=1e-4, beta1=0.9, beta2=0.999,
               eps=1e-8, weight_decay=5e-2):
    """Decoupled weight decay AdamW update of model.flat, as `sgd_step`."""
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    start = model.flat.size - grad.size
    p, m, v = model.flat[start:], state.m[start:], state.v[start:]
    m[...] = beta1 * m + (1 - beta1) * grad
    v[...] = beta2 * v + (1 - beta2) * grad * grad
    p -= lr * (m / bc1 / (np.sqrt(v / bc2) + eps) + weight_decay * p)
    return model


CHECKPOINT_VERSION = 1


def save_model(model, path):
    """Versioned binary checkpoint; round-trips bit-exact."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "d_hat0": model.d_hat0, "tau": model.tau, "depth": model.depth,
        "budget": [model.budget.d_hat, model.budget.h, model.budget.m_h,
                   model.budget.m_V, model.budget.r],
        "n_classes": model.n_classes,
    }
    arrays = {f"param::{k}": v for k, v in model.params.items()}
    arrays["meta"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8)
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    with open(path, "wb") as fh:
        fh.write(buf.getvalue())


def load_model(path):
    """The model saved at path.  Its parameters must be exactly those that
    `init_model` makes for its meta, all checked before they are copied
    into the model's flat vector; the first that is not raises
    BadParameter."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta["version"] != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {meta['version']}")
        sizes = [meta[key] for key in ("d_hat0", "tau", "depth", "n_classes")]
        if (any(type(v) is not int for v in sizes + meta["budget"])
                or meta["depth"] < 0):
            raise ValueError("checkpoint sizes must be ints, depth >= 0")
        budget = Budget(*meta["budget"])
        shapes = param_shapes(meta["d_hat0"], meta["tau"], meta["depth"],
                              budget, meta["n_classes"] - 1)
        saved = {k[len("param::"):]: data[k] for k in data.files
                 if k.startswith("param::")}
    for name, shape in shapes.items():
        value = saved.get(name)
        if value is None:
            fault = "missing"
        elif value.shape != shape:
            fault = f"shape {value.shape}, expected {shape}"
        elif value.dtype != np.float64:
            fault = f"dtype {value.dtype}, expected float64"
        elif not np.isfinite(value).all():
            fault = "not finite"
        else:
            continue
        raise BadParameter(f"parameter {name} {fault}")
    unexpected = sorted(set(saved) - set(shapes))
    if unexpected:
        raise BadParameter(f"parameter {unexpected[0]} unexpected")
    flat, params = _allocate(shapes)    # sized by the arrays just checked
    for name, value in params.items():
        value[...] = saved[name]
    return TransformerModel(d_hat0=meta["d_hat0"], tau=meta["tau"],
                            depth=meta["depth"], budget=budget,
                            n_classes=meta["n_classes"], params=params,
                            flat=flat)
