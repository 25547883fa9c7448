"""Reference predictors: LMS adaptive filter, offline least squares, and
the no-prediction hold.

All three share the windowed input convention of the RNN trainers: a flat
vector u with a leading bias 1 followed by L time steps of normalized
marker coordinates, predicting the coordinate vector h steps past the end
of the window. The linear models are y = W u, and a model is nothing but
its weight array W of shape p x (m+1), whose bias column carries the
intercept: `lms_step` takes W and returns the updated W, `fit_linreg`
returns W, and `predict_linreg` applies it. The caller holds W between
steps, as it holds the RNN trainers' parameters.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np

from markerpred.rnn import NonFiniteError, _finite_norm, _norm, _rescale, loss
from markerpred.signal import MarkerRecord, WindowedSample

__all__ = [
    "lms_step",
    "fit_linreg",
    "predict_linreg",
    "no_prediction",
]


def lms_step(
    w: np.ndarray, u: np.ndarray, y_star: np.ndarray, eta: float, tau: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """One LMS update of the weights w (p x (m+1)) on the pair (u, y*).

    Predicts y = W u, then descends the instantaneous square loss whose
    gradient in W is -e u^T (e = y* - y), clipped at tau in the norm of the
    flattened matrix (the Frobenius norm) to match the RNN trainers'
    treatment, at learning rate eta. Equal, bit for bit, to `clip_gradient`
    on the outer product followed by a full finiteness scan of the new
    weights: the norm is taken once, eta times the clipped gradient and
    then the new weights are written into the fresh gradient buffer, as
    `sgd_update` does, and a finite norm of the new weights proves them
    finite (the scan runs only when it overflows or is NaN). Neither w nor
    u is written to.

    Returns:
        (new_w, y, loss): the updated weights in a fresh array, the
        prediction made before the update, and its loss.

    Raises:
        ValueError: w is not a matrix, eta < 0, tau <= 0, or u or y_star
            does not fit w.
        NonFiniteError: loss or updated weights stopped being finite.
    """
    if w.ndim != 2:
        raise ValueError(f"W must be a matrix, got shape {w.shape}")
    if not (eta >= 0 and tau > 0):
        raise ValueError(f"need eta >= 0 and tau > 0, got eta={eta}, tau={tau}")
    p, n_in = w.shape
    if u.shape != (n_in,):
        raise ValueError(f"u has shape {u.shape}, expected ({n_in},)")
    if y_star.shape != (p,):
        raise ValueError(f"y_star has shape {y_star.shape}, expected ({p},)")
    y = w @ u
    e, loss_value = loss(y, y_star)
    if not math.isfinite(loss_value):
        raise NonFiniteError("loss")
    grad = np.outer(-e, u)
    grad_norm = _norm(grad)
    if grad_norm > tau:
        grad = _rescale(grad, tau, grad_norm)
    grad *= eta
    new_w = np.subtract(w, grad, out=grad)
    _finite_norm(new_w, "weights")
    return new_w, y, loss_value


def fit_linreg(
    samples: Sequence[WindowedSample], context: str | None = None
) -> np.ndarray:
    """Ordinary least squares over a batch of windowed samples: the weights
    W (p x (m+1)) of the least-squares map y = W u.

    Solves min_W sum ||y* - W u||^2 by singular value decomposition
    (`numpy.linalg.lstsq`), which returns the minimal-norm W when the
    design is rank-deficient. Fitting with fewer samples than inputs is
    allowed but warned about, since the system is then under-determined;
    `context`, when given, says in the warning what was fit (the harness
    names the sequence, L and h).
    """
    if not samples:
        raise ValueError("cannot fit on an empty sample collection")
    U = np.stack([s.u for s in samples])
    Y = np.stack([s.target for s in samples])
    if not (np.isfinite(U).all() and np.isfinite(Y).all()):
        raise ValueError("design matrix contains non-finite values")
    if U.shape[0] < U.shape[1]:
        where = "" if context is None else f" ({context})"
        warnings.warn(
            f"under-determined least squares: {U.shape[0]} samples for "
            f"{U.shape[1]} inputs{where}; using the minimal-norm solution",
            stacklevel=2,
        )
    coeffs, _, _, _ = np.linalg.lstsq(U, Y, rcond=None)
    return coeffs.T


def predict_linreg(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The prediction W u of fitted weights w (p x (m+1))."""
    if u.shape != (w.shape[1],):
        raise ValueError(f"u has shape {u.shape}, expected ({w.shape[1]},)")
    return w @ u


def no_prediction(record: MarkerRecord, h: int, n: int) -> np.ndarray:
    """Hold the latest observation: the estimate for step n + h is the true
    coordinate vector at step n, in mm. h = 0 returns the target itself."""
    if h < 0:
        raise ValueError(f"h must be >= 0, got {h}")
    if n < 0 or n + h >= record.n_steps:
        raise IndexError(
            f"no_prediction at n={n}, h={h} exceeds record of {record.n_steps} steps"
        )
    return record.coords(n)
