"""Reference predictors: LMS adaptive filter, offline least squares, and
the no-prediction hold.

All three share the windowed input convention of the RNN trainers: a flat
vector u with a leading bias 1 followed by L time steps of normalized
marker coordinates, predicting the coordinate vector h steps past the end
of the window. The linear models are y = W u, and a model is nothing but
its weight array W of shape p x (m+1), whose bias column carries the
intercept: `lms_step` takes W and returns the updated W, `fit_linreg`
returns W, and `predict_linreg` applies it. The caller holds W between
steps, as it holds the RNN trainers' parameters. The LMS gradient -e u^T
has rank one, so `lms_step` takes its norm in closed form, ||e|| ||u||,
and adds the clipped update to W as one BLAS product of a column and a
row: a step passes over the weights three times (the prediction, the
product and the add) and forms no gradient.

`lms_step` also steps a batch: B learners that read one (u, y*) stream,
their weights stacked as B x p x (m+1). The harness runs the LMS tuples
of a grid search that share L this way, since they differ only in the
rate. Each learner's prediction, loss, new weights and divergence are
bit for bit those of its own one-learner step, and a learner that goes
non-finite is reported without disturbing the others.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence

import numpy as np

from markerpred.rnn import _FINITE_BOUND, NonFiniteError, _clipped_rate, _norm
from markerpred.signal import MarkerRecord

__all__ = [
    "lms_step",
    "fit_linreg",
    "predict_linreg",
    "no_prediction",
]

# Finite squared norms of at least this are dot products whose rounding is
# relative: the squares in them that underflow change them by far less than
# one unit roundoff. For smaller or overflowing ones `lms_step` takes the
# norms with math.hypot, which is within an ulp at any magnitude.
_TINY_SQUARES = 2.0 ** -960


def lms_step(
    w: np.ndarray,
    u: np.ndarray,
    y_star: np.ndarray,
    eta: float | Sequence[float],
    tau: float,
    out: np.ndarray | None = None,
    w_bound: float | Sequence[float] | None = None,
) -> (tuple[np.ndarray, np.ndarray, float]
      | tuple[np.ndarray, np.ndarray, list[float], list[tuple[int, str]]]):
    """One LMS update of the weights w (p x (m+1)) on the pair (u, y*), or
    of a batch of B such learners, w of shape B x p x (m+1), on one pair.

    Predicts y = W u, then descends the instantaneous square loss whose
    gradient in W is -e u^T (e = y* - y), clipped at tau in the norm of the
    flattened matrix (the Frobenius norm) to match the RNN trainers'
    treatment, at learning rate eta. The gradient has rank one, so its
    norm is gn = ||e|| ||u||, each factor the square root of a dot product
    (or math.hypot when a squared norm is below 2^-960 or overflows). The
    step adds the update (c e) u^T to W, formed as one BLAS product of a
    column and a row, with c = eta * tau' / gn when gn > tau' and c = eta
    otherwise, where tau' = tau * (1 - (p + m + 33) 2^-53)
    (`rnn._clipped_rate`, which UORO's step shares).

    Clip rule: the update added to W, Delta = (c e) u^T as formed in
    doubles, has ||Delta||_F <= eta * tau in exact arithmetic. tau' is tau
    shrunk by a bound on the relative rounding of gn (two dot products of
    p and m+1 terms, two square roots and a product), of c and of Delta's
    entries, so no rounding carries the update past the clip. The bound
    needs that rounding to be relative: the rule holds whenever tau,
    eta * tau, ||e||, ||u||, gn, c and c ||e|| lie in [2^-1000, 2^1000],
    and trivially when eta, e or u is zero. It replaces the formed
    gradient's clip, whose guard rescaled until the clipped gradient's
    computed norm was at most tau; when a step clips, its c is smaller
    than that clip's factor by about (p + m + 33) 2^-53, relatively.

    Finiteness: `w_bound` is a bound on ||w||_F. By the clip rule the new
    weights' norm is at most w_bound + eta * tau up to rounding, so they
    are scanned for finiteness only when that sum is not at most half the
    largest double. A pure call (no w_bound) takes ||w||_F, one pass over
    w, which proves w finite unless it overflows. A learner carries the
    bound instead, 0 for its zero start plus eta * tau per step, so its
    steps pass over the weights three times (the prediction, the product
    and the add) and scan them only once the bound fails. Either way a NaN
    or an overflow in the new weights is caught at the step it appears in.

    Batch: learners that read one (u, y*) stream step as one. Their
    predictions are one stacked matrix-vector product, ||u||^2 is taken
    once, each slot's ||e||^2 is a row-by-row dot of one stacked product,
    and the updates of all B p rows are one column-by-row product. Every
    slot's scalars (its loss, gn, c and the checks) stay its own Python
    floats. Each slot's prediction, loss and new weights are bit for bit
    what a one-learner call on its weights gives: the stacked products run
    one BLAS gemv or ddot per slot, and every entry of the update is a
    single rounded product, so no slot's values reach another's. A slot
    that goes non-finite is reported, not raised, and leaves the other
    slots' results untouched.

    Args:
        w: current weights, p x (m+1), or B x p x (m+1) for a batch. Not
            written to.
        u: input, m+1 entries. Not written to.
        y_star: target, p entries.
        eta: learning rate, >= 0; for a batch, one rate per slot.
        tau: clip threshold, > 0.
        out: a C-contiguous float array of w's shape that receives the new
            weights and shares no memory with w or u. A learner passes the
            buffer its previous weights were in, so its weights alternate
            between two buffers. None makes a fresh array.
        w_bound: a bound on ||w||_F that the caller carries (for a batch,
            one per slot); None takes ||w||_F.

    Returns:
        (new_w, y, loss): the updated weights (`out`, or a fresh array),
        the prediction made before the update, and its loss. For a batch,
        (new_w, y, losses, diverged): y is B x p, losses holds each slot's
        loss, and diverged lists (slot, quantity) for every slot that went
        non-finite at this step, in slot order. Such a slot's loss and new
        weights mean nothing.

    Raises:
        ValueError: w is neither a matrix nor a stack of them, a rate is
            < 0, tau <= 0, or u or y_star does not fit w.
        NonFiniteError: one learner's loss or updated weights stopped
            being finite ("loss" or "weights"); a batch reports these in
            `diverged` instead.
    """
    if w.ndim == 2:
        new_w, y, (loss_value,), diverged = lms_step(
            w[None], u, y_star, (eta,), tau,
            None if out is None else out[None],
            None if w_bound is None else (w_bound,),
        )
        if diverged:
            raise NonFiniteError(diverged[0][1])
        return new_w[0], y[0], loss_value
    if w.ndim != 3:
        raise ValueError(
            f"W must be a matrix or a stack of them, got shape {w.shape}")
    n_slots, p, n_in = w.shape
    if len(eta) != n_slots:
        raise ValueError(f"need {n_slots} rates, got {len(eta)}")
    for rate in eta:
        if not (rate >= 0 and tau > 0):
            raise ValueError(
                f"need eta >= 0 and tau > 0, got eta={rate}, tau={tau}")
    if u.shape != (n_in,):
        raise ValueError(f"u has shape {u.shape}, expected ({n_in},)")
    if y_star.shape != (p,):
        raise ValueError(f"y_star has shape {y_star.shape}, expected ({p},)")
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    y = np.matmul(w, u)
    e = y_star - y
    squares = np.matmul(e[:, None, :], e[:, :, None]).ravel().tolist()
    if out is None:
        out = np.empty((n_slots, p, n_in))
    losses, rates, diverged = [], [], []
    u_norm = None
    for k, e_squares in enumerate(squares):
        loss_value = 0.5 * e_squares
        losses.append(loss_value)
        if not math.isfinite(loss_value):
            diverged.append((k, "loss"))
            rates.append(0.0)
            continue
        if u_norm is None:
            # ||u||^2 once, and only when a slot steps: a one-learner call
            # raises on its loss before it takes ||u||.
            u_squares = float(u.dot(u))
            u_fine = _TINY_SQUARES <= u_squares < math.inf
            u_norm = math.sqrt(u_squares)
        if e_squares >= _TINY_SQUARES and u_fine:
            grad_norm = math.sqrt(e_squares) * u_norm
        else:
            grad_norm = math.hypot(*e[k]) * math.hypot(*u)
        rates.append(_clipped_rate(eta[k], tau, grad_norm, p + n_in))
    if u_norm is None:
        # No slot steps.
        return out, y, losses, diverged
    if w_bound is None:
        w_bound = [_norm(w_k) for w_k in w]
    np.multiply(e, np.array(rates)[:, None], out=e)
    np.dot(e.reshape(n_slots * p, 1), u[None, :],
           out=out.reshape(n_slots * p, n_in))
    new_w = np.add(w, out, out=out)
    for k, bound in enumerate(w_bound):
        if math.isfinite(losses[k]) and not (
                bound + eta[k] * tau <= _FINITE_BOUND
                or np.isfinite(new_w[k]).all()):
            diverged.append((k, "weights"))
    diverged.sort()
    return new_w, y, losses, diverged


def fit_linreg(
    U: np.ndarray, Y: np.ndarray, context: str | None = None
) -> np.ndarray:
    """Ordinary least squares over a design (`signal.design_matrix`): the
    weights W (p x (m+1)) of the least-squares map y = W u, for inputs u
    the rows of U (n x (m+1)) and targets y* the rows of Y (n x p).

    Solves min_W sum ||y* - W u||^2 by singular value decomposition
    (`numpy.linalg.lstsq`), which returns the minimal-norm W when the
    design is rank-deficient. Fitting with fewer samples than inputs is
    allowed but warned about, since the system is then under-determined;
    `context`, when given, says in that warning and in the empty-design
    error what was fit (the harness names the sequence, L and h).
    """
    if U.ndim != 2 or Y.ndim != 2 or U.shape[0] != Y.shape[0]:
        raise ValueError(
            f"need matrices U and Y with one row per sample, got shapes "
            f"{U.shape} and {Y.shape}"
        )
    where = "" if context is None else f" ({context})"
    if U.shape[0] == 0:
        raise ValueError(f"cannot fit on an empty sample collection{where}")
    if not (np.isfinite(U).all() and np.isfinite(Y).all()):
        raise ValueError("design matrix contains non-finite values")
    if U.shape[0] < U.shape[1]:
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
