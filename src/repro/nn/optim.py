"""Optimizers and learning-rate schedules.

The optimizer is the update rule ``U`` of Algorithm 1/2 in the paper: given
the (globally averaged) gradients it produces the weight update.  The
distributed layer (:mod:`repro.training`) always passes *already reduced*
gradients, so these optimizers are purely local.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.nn.module import Module, Parameter
from repro.nn.parameters import _ordered_named_parameters


class LearningRateSchedule:
    """Base class: maps a step index to a learning rate."""

    def lr(self, step: int) -> float:
        raise NotImplementedError

    def __call__(self, step: int) -> float:
        return self.lr(step)


class ConstantLR(LearningRateSchedule):
    """A constant learning rate."""

    def __init__(self, value: float) -> None:
        if value <= 0:
            raise ValueError("learning rate must be positive")
        self.value = float(value)

    def lr(self, step: int) -> float:
        return self.value


class StepDecayLR(LearningRateSchedule):
    """Piecewise-constant decay: multiply by ``factor`` at each milestone."""

    def __init__(self, base: float, milestones: Iterable[int], factor: float = 0.1) -> None:
        if base <= 0:
            raise ValueError("base learning rate must be positive")
        self.base = float(base)
        self.milestones = sorted(int(m) for m in milestones)
        self.factor = float(factor)

    def lr(self, step: int) -> float:
        drops = sum(1 for m in self.milestones if step >= m)
        return self.base * (self.factor**drops)


class WarmupLR(LearningRateSchedule):
    """Linear warmup followed by another schedule (large-batch recipes)."""

    def __init__(self, target: LearningRateSchedule, warmup_steps: int) -> None:
        if warmup_steps < 0:
            raise ValueError("warmup_steps must be non-negative")
        self.target = target
        self.warmup_steps = int(warmup_steps)

    def lr(self, step: int) -> float:
        base = self.target.lr(step)
        if self.warmup_steps == 0 or step >= self.warmup_steps:
            return base
        return base * (step + 1) / self.warmup_steps


def _as_schedule(lr) -> LearningRateSchedule:
    if isinstance(lr, LearningRateSchedule):
        return lr
    return ConstantLR(float(lr))


class Optimizer:
    """Base optimizer operating on a module's parameters."""

    def __init__(self, module: Module, lr) -> None:
        self.module = module
        self.schedule = _as_schedule(lr)
        self.step_count = 0
        # Work space of the in-place update kernels, grown on demand and
        # reused every step; not optimizer state (never saved or counted).
        self._scratch_buffer = np.empty(0)

    @property
    def parameters(self) -> List[Parameter]:
        return self.module.parameters()

    def zero_grad(self) -> None:
        self.module.zero_grad()

    def current_lr(self) -> float:
        return self.schedule.lr(self.step_count)

    def step(self) -> None:
        """Apply one update using the gradients stored in the parameters."""
        lr = self.current_lr()
        self._apply(lr)
        self.step_count += 1

    def _apply(self, lr: float) -> None:
        for param in self.parameters:
            self._update(param.data, param.grad, id(param), False, lr)

    # ------------------------------------------------------------ sharding
    def step_windows(
        self,
        params: Sequence[np.ndarray],
        grads: Sequence[np.ndarray],
        keys: Sequence[str],
    ) -> None:
        """One update step applied to *owned* parameter windows only (ZeRO-1).

        ``params[i]`` is a writable view of a flat-parameter window,
        updated in place; ``grads[i]`` the matching (already reduced and
        averaged) gradient window, only read; and ``keys[i]`` a stable
        identifier — the exchange uses ``"lo:hi"`` in global flat
        coordinates — that the lazily allocated per-window state
        (momentum, moments) is keyed by.  Both paths run the same
        in-place update kernel, and every rule here is elementwise, so
        applying it to windows of the flat vector is bit-identical to the
        per-parameter :meth:`step`; a rank therefore only ever
        materialises state for the ~1/P of the model it owns.  Counts as
        one step.
        """
        if not (len(params) == len(grads) == len(keys)):
            raise ValueError(
                f"step_windows needs parallel params/grads/keys, got lengths "
                f"{len(params)}/{len(grads)}/{len(keys)}"
            )
        lr = self.current_lr()
        for param, grad, key in zip(params, grads, keys):
            if param.shape != grad.shape:
                raise ValueError(
                    f"window {key!r}: parameter window has shape {param.shape} "
                    f"but gradient window has {grad.shape}"
                )
            if param.size:
                self._update(param, grad, str(key), True, lr)
        self.step_count += 1

    def _update(
        self, param: np.ndarray, grad: np.ndarray, key, windowed: bool, lr: float
    ) -> None:
        """The update rule: modify ``param`` (and the state under ``key``) in place.

        ``key`` is ``id(parameter)`` for :meth:`step` and the window key
        for :meth:`step_windows` (``windowed``); ``grad`` is never
        written.
        """
        raise NotImplementedError

    def _state(self, slot: str, key, windowed: bool, like: np.ndarray) -> np.ndarray:
        """The ``slot`` state array under ``key``, zero-initialised on first use."""
        store = self._slot_store(slot, windowed)
        arr = store.get(key)
        if arr is None:
            arr = store[key] = np.zeros_like(like)
        return arr

    def _scratch(self, like: np.ndarray, count: int) -> List[np.ndarray]:
        """``count`` disjoint work arrays shaped like ``like``, from one buffer.

        They follow ``like``'s memory order: mixing a Fortran-ordered
        parameter (the LSTM's weights) with C-ordered work arrays sends
        every elementwise kernel down a strided loop several times slower.
        """
        n = like.size
        if self._scratch_buffer.size < n * count:
            self._scratch_buffer = np.empty(n * count)
        order = "F" if like.flags.f_contiguous and not like.flags.c_contiguous else "C"
        return [
            self._scratch_buffer[i * n : (i + 1) * n].reshape(like.shape, order=order)
            for i in range(count)
        ]

    # ------------------------------------------------------------ state
    #: Names of this optimizer's per-entry state arrays (e.g.
    #: ``("velocity",)`` for momentum SGD); empty for stateless rules.
    state_slots: tuple = ()

    def _slot_store(self, slot: str, windowed: bool) -> Dict:
        """Subclass storage dict for ``slot`` (``id(param)``- or window-keyed)."""
        raise KeyError(slot)

    def state_dict(self) -> Dict:
        """Serializable optimizer state (checkpoint / sharded round-trip).

        Layout::

            {"step_count": int,
             "param_state":  {param_name: {slot: ndarray}},
             "window_state": {"lo:hi":    {slot: ndarray}}}

        Per-parameter state is keyed by the module's canonical parameter
        names, window state by the owned-window keys of
        :meth:`step_windows`; arrays are copies, so mutating the live
        optimizer does not corrupt a saved checkpoint.
        """
        param_state: Dict[str, Dict[str, np.ndarray]] = {}
        window_state: Dict[str, Dict[str, np.ndarray]] = {}
        for slot in self.state_slots:
            by_param = self._slot_store(slot, windowed=False)
            for name, param in _ordered_named_parameters(self.module):
                arr = by_param.get(id(param))
                if arr is not None:
                    param_state.setdefault(name, {})[slot] = np.array(arr, copy=True)
            for key, arr in self._slot_store(slot, windowed=True).items():
                window_state.setdefault(key, {})[slot] = np.array(arr, copy=True)
        return {
            "step_count": int(self.step_count),
            "param_state": param_state,
            "window_state": window_state,
        }

    def load_state_dict(self, state: Dict) -> None:
        """Restore :meth:`state_dict` output; replaces all current state."""
        self.step_count = int(state.get("step_count", 0))
        param_state = state.get("param_state", {})
        window_state = state.get("window_state", {})
        named = dict(_ordered_named_parameters(self.module))
        unknown = sorted(set(param_state) - set(named))
        if unknown:
            raise ValueError(
                f"state_dict references parameter(s) {unknown} not present "
                f"in the module"
            )
        for slot in self.state_slots:
            by_param = self._slot_store(slot, windowed=False)
            by_window = self._slot_store(slot, windowed=True)
            by_param.clear()
            by_window.clear()
            for name, slots in param_state.items():
                if slot in slots:
                    arr = np.array(slots[slot], dtype=np.float64, copy=True)
                    if arr.shape != named[name].data.shape:
                        raise ValueError(
                            f"state for parameter {name!r} slot {slot!r} has "
                            f"shape {arr.shape}, parameter has "
                            f"{named[name].data.shape}"
                        )
                    by_param[id(named[name])] = arr
            for key, slots in window_state.items():
                if slot in slots:
                    by_window[str(key)] = np.array(
                        slots[slot], dtype=np.float64, copy=True
                    )

    def state_bytes(self) -> int:
        """Bytes held in optimizer state arrays (0 for stateless rules).

        Under ZeRO-1 sharding only the owned windows are ever allocated,
        so this gauge drops to ~1/P of the unsharded footprint — the
        metric exported as ``repro_optimizer_state_bytes``.
        """
        total = 0
        for slot in self.state_slots:
            for arr in self._slot_store(slot, windowed=False).values():
                total += arr.nbytes
            for arr in self._slot_store(slot, windowed=True).values():
                total += arr.nbytes
        return total


class SGD(Optimizer):
    """Plain stochastic gradient descent with optional weight decay."""

    def __init__(self, module: Module, lr, weight_decay: float = 0.0) -> None:
        super().__init__(module, lr)
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.weight_decay = weight_decay

    def _update(self, param, grad, key, windowed, lr) -> None:
        (step,) = self._scratch(param, 1)
        if self.weight_decay:
            # grad + weight_decay * param, then lr * that.
            np.multiply(param, self.weight_decay, out=step)
            step += grad
            step *= lr
        else:
            np.multiply(grad, lr, out=step)
        param -= step


class MomentumSGD(Optimizer):
    """SGD with (optionally Nesterov) momentum — the paper's update rule."""

    def __init__(
        self,
        module: Module,
        lr,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(module, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov
        self._velocity: Dict[int, np.ndarray] = {}
        self._window_velocity: Dict[str, np.ndarray] = {}

    state_slots = ("velocity",)

    def _slot_store(self, slot: str, windowed: bool) -> Dict:
        if slot != "velocity":
            raise KeyError(slot)
        return self._window_velocity if windowed else self._velocity

    def _update(self, param, grad, key, windowed, lr) -> None:
        g, step = self._scratch(param, 2)
        if self.weight_decay:
            np.multiply(param, self.weight_decay, out=g)
            g += grad
        else:
            g = grad
        vel = self._state("velocity", key, windowed, param)
        # vel = momentum * vel + g
        vel *= self.momentum
        vel += g
        if self.nesterov:
            # lr * (g + momentum * vel)
            np.multiply(vel, self.momentum, out=step)
            step += g
            step *= lr
        else:
            np.multiply(vel, lr, out=step)
        param -= step


class Adam(Optimizer):
    """Adam optimizer."""

    def __init__(
        self,
        module: Module,
        lr,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(module, lr)
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1:
            raise ValueError("betas must be in [0, 1)")
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._window_m: Dict[str, np.ndarray] = {}
        self._window_v: Dict[str, np.ndarray] = {}

    state_slots = ("m", "v")

    def _slot_store(self, slot: str, windowed: bool) -> Dict:
        if slot == "m":
            return self._window_m if windowed else self._m
        if slot == "v":
            return self._window_v if windowed else self._v
        raise KeyError(slot)

    def _update(self, param, grad, key, windowed, lr) -> None:
        t = self.step_count + 1
        a, b = self._scratch(param, 2)
        if self.weight_decay:
            np.multiply(param, self.weight_decay, out=a)
            a += grad
            grad = a
        m = self._state("m", key, windowed, param)
        v = self._state("v", key, windowed, param)
        # m = beta1 * m + (1 - beta1) * grad
        m *= self.beta1
        np.multiply(grad, 1 - self.beta1, out=b)
        m += b
        # v = beta2 * v + (1 - beta2) * grad**2
        np.multiply(grad, grad, out=b)
        b *= 1 - self.beta2
        v *= self.beta2
        v += b
        # param -= lr * m_hat / (sqrt(v_hat) + eps)
        np.divide(m, 1 - self.beta1**t, out=b)
        b *= lr
        np.divide(v, 1 - self.beta2**t, out=a)
        np.sqrt(a, out=a)
        a += self.eps
        b /= a
        param -= b
