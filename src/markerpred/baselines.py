"""Reference predictors: LMS adaptive filter, offline least squares, and
the no-prediction hold.

All three share the windowed input convention of the RNN trainers: a flat
vector u with a leading bias 1 followed by L time steps of normalized
marker coordinates, predicting the coordinate vector h steps past the end
of the window. The linear models are y = W u with W of shape p x (m+1);
the bias column carries the intercept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from markerpred.rnn import NonFiniteError, _rescale, loss
from markerpred.signal import MarkerRecord, WindowedSample

__all__ = [
    "LmsFilter",
    "LmsStepResult",
    "LinearRegressor",
    "init_lms",
    "lms_step",
    "fit_linreg",
    "predict_linreg",
    "no_prediction",
]


@dataclass(frozen=True)
class LmsFilter:
    """Least-mean-squares filter: weights W (p x (m+1)), learning rate eta,
    clip threshold tau."""

    w: np.ndarray
    eta: float
    tau: float

    def __post_init__(self):
        if self.w.ndim != 2:
            raise ValueError(f"W must be a matrix, got shape {self.w.shape}")
        if not (self.eta >= 0 and self.tau > 0):
            raise ValueError(f"need eta >= 0 and tau > 0, got {self}")


@dataclass(frozen=True)
class LmsStepResult:
    filter: LmsFilter
    y: np.ndarray
    loss: float


@dataclass(frozen=True)
class LinearRegressor:
    """Fitted least-squares map y = W u, W of shape p x (m+1)."""

    w: np.ndarray


def init_lms(m: int, p: int, eta: float, tau: float = 2.0) -> LmsFilter:
    """Zero-weight filter, the conventional LMS starting point."""
    return LmsFilter(w=np.zeros((p, m + 1)), eta=eta, tau=tau)


def lms_step(filter: LmsFilter, u: np.ndarray, y_star: np.ndarray) -> LmsStepResult:
    """One LMS update.

    Predicts y = W u, then descends the instantaneous square loss whose
    gradient in W is -e u^T (e = y* - y), clipped at tau in the norm of the
    flattened matrix (the Frobenius norm) to match the RNN trainers'
    treatment. Equal, bit for bit, to `clip_gradient` on the outer product
    followed by a full finiteness scan of the new weights: the norm is
    taken once, eta times the clipped gradient and then the new weights are
    written into the fresh gradient buffer, as `sgd_update` does, and a
    finite norm of the new weights proves them finite (the scan runs only
    when it overflows or is NaN).

    Raises:
        NonFiniteError: loss or updated weights stopped being finite.
    """
    p, n_in = filter.w.shape
    if u.shape != (n_in,):
        raise ValueError(f"u has shape {u.shape}, expected ({n_in},)")
    if y_star.shape != (p,):
        raise ValueError(f"y_star has shape {y_star.shape}, expected ({p},)")
    y = filter.w @ u
    e, loss_value = loss(y, y_star)
    if not math.isfinite(loss_value):
        raise NonFiniteError("loss")
    grad = np.outer(-e, u)
    flat = grad.ravel()
    grad_norm = math.sqrt(flat.dot(flat))
    if grad_norm > filter.tau:
        grad = _rescale(grad, filter.tau, grad_norm)
    grad *= filter.eta
    new_w = np.subtract(filter.w, grad, out=grad)
    flat = new_w.ravel()
    if not math.isfinite(flat.dot(flat)) and not np.isfinite(new_w).all():
        raise NonFiniteError("weights")
    return LmsStepResult(
        filter=LmsFilter(w=new_w, eta=filter.eta, tau=filter.tau),
        y=y,
        loss=loss_value,
    )


def fit_linreg(samples: Sequence[WindowedSample]) -> LinearRegressor:
    """Ordinary least squares over a batch of windowed samples.

    Solves min_W sum ||y* - W u||^2 by singular value decomposition
    (`numpy.linalg.lstsq`), which returns the minimal-norm W when the
    design is rank-deficient. Fitting with fewer samples than inputs is
    allowed but warned about, since the system is then under-determined.
    """
    if not samples:
        raise ValueError("cannot fit on an empty sample collection")
    U = np.stack([s.u for s in samples])
    Y = np.stack([s.target for s in samples])
    if not (np.isfinite(U).all() and np.isfinite(Y).all()):
        raise ValueError("design matrix contains non-finite values")
    if U.shape[0] < U.shape[1]:
        warnings.warn(
            f"under-determined least squares: {U.shape[0]} samples for "
            f"{U.shape[1]} inputs; using the minimal-norm solution",
            stacklevel=2,
        )
    coeffs, _, _, _ = np.linalg.lstsq(U, Y, rcond=None)
    return LinearRegressor(w=coeffs.T)


def predict_linreg(model: LinearRegressor, u: np.ndarray) -> np.ndarray:
    if u.shape != (model.w.shape[1],):
        raise ValueError(f"u has shape {u.shape}, expected ({model.w.shape[1]},)")
    return model.w @ u


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
