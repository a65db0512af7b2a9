"""Test-only autodiff helpers: the central-difference gradient check, and
the Tensor ops that only the tests' composed references and grad checks
use (`x @ w`, a Tensor `swapaxes`, `softmax` and `sigmoid`). No training
stage or inference path records any of these ops, so they live here and
not in `paravox.engine`. The softmax and sigmoid nodes run the engine's
array code forward, and the softmax node attention's backward
(`engine._softmax_backward`), so their grad checks cover that code."""

import numpy as np

from paravox.engine import Rng, Tensor, _softmax_backward, sigmoid, softmax, zero_grad


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """`a @ b` over the last two axes, one tape node."""
    x, y = a.data, b.data
    data = np.matmul(x, y)

    def grad_fn(g):
        if a.requires_grad:
            a._accumulate(np.matmul(g, y.swapaxes(-1, -2)))
        if b.requires_grad:
            b._accumulate(np.matmul(x.swapaxes(-1, -2), g))

    return Tensor._make(data, (a, b), grad_fn)


def swapaxes(x: Tensor, ax1: int, ax2: int) -> Tensor:
    """`x.data.swapaxes(ax1, ax2)`, one tape node."""
    return Tensor._make(x.data.swapaxes(ax1, ax2), (x,), lambda g: x._accumulate(g.swapaxes(ax1, ax2)))


def tensor_softmax(x: Tensor, axis: int = -1, scale: float | None = None, mask: np.ndarray | None = None) -> Tensor:
    """`engine.softmax` of x's data, one tape node whose backward is attention's."""
    data = softmax(x.data, axis, scale, mask)
    return Tensor._make(data, (x,), lambda g: x._accumulate(_softmax_backward(g, data, axis, scale)))


def tensor_sigmoid(x: Tensor) -> Tensor:
    """`engine.sigmoid` of x's data, one tape node."""
    data = sigmoid(x.data)
    return Tensor._make(data, (x,), lambda g: x._accumulate(g * data * (1.0 - data)))


class GradCheckReport:
    """Per-parameter comparison of analytic vs central-difference gradients.

    The error metric is max over coordinates of |a - n| / max(1, |a|, |n|),
    i.e. absolute for small gradients, relative for large ones. A report
    never raises; inspect `passed`.
    """

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.entries: list[tuple[str, float, int]] = []

    def add(self, name: str, max_err: float, n_coords: int):
        self.entries.append((name, max_err, n_coords))

    @property
    def max_error(self) -> float:
        return max((e for _, e, _ in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_error < self.tolerance

    def __str__(self):
        lines = [f"grad check (tolerance {self.tolerance:g}):"]
        for name, err, n in self.entries:
            mark = "ok  " if err < self.tolerance else "FAIL"
            lines.append(f"  [{mark}] {name}: max err {err:.3e} over {n} coords")
        lines.append(f"  overall: {'PASS' if self.passed else 'FAIL'} (max {self.max_error:.3e})")
        return "\n".join(lines)


def grad_check(fn, params: dict, tolerance: float = 1e-5, h: float = 1e-5,
               max_coords: int | None = None, rng: Rng | None = None) -> GradCheckReport:
    """Compare analytic gradients of `fn()` against central differences.

    `fn` is a zero-argument closure over `params` (name -> Tensor) that
    rebuilds the loss graph on each call. All parameters must be float64;
    float32 rounding swamps the h=1e-5 difference quotient. When
    `max_coords` is set, a seeded random subset of coordinates is probed
    per parameter instead of every one.
    """
    for name, p in params.items():
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check requires float64 parameters, {name!r} is {p.data.dtype}")
    report = GradCheckReport(tolerance)
    zero_grad(params)
    loss = fn()
    loss.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for name, p in params.items()}

    def eval_loss() -> float:
        return float(fn().data)

    for name, p in params.items():
        flat = p.data.reshape(-1)
        n = flat.shape[0]
        if max_coords is not None and n > max_coords:
            if rng is None:
                raise ValueError("max_coords needs an Rng for coordinate subsampling")
            coords = rng.generator.choice(n, size=max_coords, replace=False)
        else:
            coords = range(n)
        a_flat = analytic[name].reshape(-1)
        max_err = 0.0
        count = 0
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = eval_loss()
            flat[i] = orig - h
            f_minus = eval_loss()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            a = a_flat[i]
            err = abs(a - numeric) / max(1.0, abs(a), abs(numeric))
            if err > max_err:
                max_err = err
            count += 1
        report.add(name, max_err, count)
    return report
