"""Flattening parameters and gradients to a single vector and back.

Distributed data-parallel SGD reduces the gradient of *every* parameter in
one (or a few fused) allreduce operations; the partial collectives of this
reproduction likewise operate on one flat ``float64`` vector per step.
These helpers define a stable parameter ordering (sorted hierarchical
names), pack/unpack the vectors and provide the parameter count reported
in Table 1 of the paper.

:func:`bind_flat_storage` goes one step further and makes the flat
vectors the model's *storage*: every ``Parameter.data`` / ``.grad``
becomes a reshaped view of one contiguous parameter vector and one
contiguous gradient vector, so a bucketed collective can reduce and
update slices of them in place instead of packing copies (the
gradient-as-bucket-view layout of PyTorch DDP and ZeRO).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.nn.module import Module, Parameter


def _ordered_named_parameters(module: Module) -> List[Tuple[str, "np.ndarray"]]:
    named = sorted(module.named_parameters(), key=lambda kv: kv[0])
    names = [n for n, _ in named]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise ValueError(f"duplicate parameter names: {dupes}")
    return named


def parameter_count(module: Module) -> int:
    """Number of scalar trainable parameters (Table 1's Parameters column)."""
    return module.num_parameters()


def flatten_parameters(module: Module) -> np.ndarray:
    """Concatenate all parameters into one 1-D vector (stable order)."""
    named = _ordered_named_parameters(module)
    if not named:
        return np.zeros(0)
    return np.concatenate([p.data.reshape(-1) for _, p in named])


def flatten_gradients(module: Module) -> np.ndarray:
    """Concatenate all parameter gradients into one 1-D vector."""
    named = _ordered_named_parameters(module)
    if not named:
        return np.zeros(0)
    return np.concatenate([p.grad.reshape(-1) for _, p in named])


def _bound_storage(
    named: List[Tuple[str, Parameter]]
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The flat ``(params, grads)`` vectors ``named`` is bound to, if any.

    A module is bound when every parameter's ``.data`` and ``.grad`` are
    contiguous views of two 1-D ``float64`` vectors, at the parameter's
    canonical offset, and the vectors hold nothing else.
    """
    if not named:
        return None
    params, grads = named[0][1].data.base, named[0][1].grad.base
    for vector in (params, grads):
        if not (
            isinstance(vector, np.ndarray)
            and vector.ndim == 1
            and vector.dtype == np.float64
            and vector.flags.c_contiguous
        ):
            return None
    p_ptr = params.__array_interface__["data"][0]
    g_ptr = grads.__array_interface__["data"][0]
    offset = 0
    for _, param in named:
        data, grad = param.data, param.grad
        if not (
            data.base is params
            and grad.base is grads
            and data.flags.c_contiguous
            and grad.flags.c_contiguous
            and data.__array_interface__["data"][0] == p_ptr + 8 * offset
            and grad.__array_interface__["data"][0] == g_ptr + 8 * offset
        ):
            return None
        offset += data.size
    if offset != params.size or offset != grads.size:
        return None
    return params, grads


def bind_flat_storage(module: Module) -> Tuple[np.ndarray, np.ndarray]:
    """Move the module's parameters and gradients into two flat vectors.

    Returns ``(params, grads)``: contiguous ``float64`` vectors in the
    canonical (sorted-name) order of :func:`flatten_parameters`.  Every
    ``Parameter.data`` / ``.grad`` is rebound to a reshaped view of its
    slice, values and gradients preserved bitwise, so in-place writes to
    either vector *are* writes to the model and vice versa.  Idempotent:
    an already bound module returns its existing vectors untouched.

    Arrays a caller captured from ``param.data`` / ``param.grad`` before
    the first bind still hold the old, now detached storage.
    """
    named = _ordered_named_parameters(module)
    bound = _bound_storage(named)
    if bound is not None:
        return bound
    if len({id(param) for _, param in named}) != len(named):
        raise ValueError("cannot bind a module that shares one Parameter under two names")
    total = sum(param.size for _, param in named)
    params = np.empty(total, dtype=np.float64)
    grads = np.empty(total, dtype=np.float64)
    offset = 0
    for _, param in named:
        shape, n = param.data.shape, param.size
        params[offset : offset + n] = param.data.reshape(-1)
        grads[offset : offset + n] = param.grad.reshape(-1)
        param.data = params[offset : offset + n].reshape(shape)
        param.grad = grads[offset : offset + n].reshape(shape)
        offset += n
    return params, grads


def unflatten_parameters(module: Module, flat: np.ndarray) -> Dict[str, np.ndarray]:
    """Split a flat vector back into per-parameter arrays (no assignment)."""
    flat = np.asarray(flat, dtype=np.float64).reshape(-1)
    named = _ordered_named_parameters(module)
    total = sum(p.size for _, p in named)
    if flat.size != total:
        raise ValueError(
            f"flat vector has {flat.size} elements but the module has {total} parameters"
        )
    out: Dict[str, np.ndarray] = {}
    offset = 0
    for name, param in named:
        n = param.size
        out[name] = flat[offset : offset + n].reshape(param.data.shape)
        offset += n
    return out


def assign_flat_parameters(module: Module, flat: np.ndarray) -> None:
    """Overwrite the module's parameters from a flat vector (model sync)."""
    pieces = unflatten_parameters(module, flat)
    for name, param in _ordered_named_parameters(module):
        param.data[...] = pieces[name]


def assign_flat_gradients(module: Module, flat: np.ndarray) -> None:
    """Overwrite the module's parameter gradients from a flat vector.

    Used after the distributed gradient exchange: the (partial) allreduce
    returns one flat averaged-gradient vector which is scattered back into
    ``param.grad`` before the optimizer step.
    """
    pieces = unflatten_parameters(module, flat)
    for name, param in _ordered_named_parameters(module):
        param.grad[...] = pieces[name]
