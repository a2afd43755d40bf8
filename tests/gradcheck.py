"""Central finite-difference checking shared by the gradient tests, and the
layer and model set-up those tests share.

The oracle stays independent of the backward passes it checks: it only ever
calls the forward path.
"""

import numpy as np

STEP = 1e-6


def rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst entrywise |a - n| / max(1, |a|, |n|)."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))


def numeric_grad(loss_fn, array: np.ndarray, step: float = STEP) -> np.ndarray:
    """Central differences of a scalar-valued closure w.r.t. one array,
    perturbing it in place."""
    grad = np.zeros_like(array)
    flat = array.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        plus = loss_fn()
        flat[i] = orig - step
        minus = loss_fn()
        flat[i] = orig
        grad_flat[i] = (plus - minus) / (2.0 * step)
    return grad


def check_grads(loss_fn, arrays_and_analytic, tol: float, step: float = STEP) -> None:
    """Assert every (array, analytic_grad) pair against central differences."""
    for name, array, analytic in arrays_and_analytic:
        numeric = numeric_grad(loss_fn, array, step)
        err = rel_err(analytic, numeric)
        assert err < tol, f"{name}: finite-difference mismatch, rel err {err:.3e} >= {tol:g}"


def randomize(layer, rng, offsets=None):
    """Overwrite every parameter of ``layer`` with standard normal draws, in
    params() order, plus an optional offset per short parameter name."""
    for p in layer.params():
        short = p.name.rsplit(".", 1)[1]
        p.value[...] = rng.normal(size=p.value.shape) + (offsets or {}).get(short, 0.0)
    return layer


def in_dtype(owner, dtype=np.float32):
    """``owner``, a layer or a model, with every parameter value cast to
    ``dtype`` once, as ``training.train`` rounds them to float32: the dtype
    it then computes in."""
    for p in owner.params():
        p.value = p.value.astype(dtype)
    return owner


def param_grads(layer, names=None):
    """(name, value, gradient) of the layer's parameters, all of them or
    those with the given short names, for check_grads."""
    return [(p.name, p.value, p.grad) for p in layer.params()
            if names is None or p.name.rsplit(".", 1)[1] in names]
