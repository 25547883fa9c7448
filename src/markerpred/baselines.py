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
row; it forms no gradient. `fit_linreg` takes W from a Householder R
factor of the design and its two triangular solves, not from a singular
value decomposition, which it keeps for rank-deficient designs only.

`lms_step` is the one-step oracle. The harness's LMS learner
(`harness._lms_learner`) steps B learners that read one (u, y*) stream
as one block-delayed batch, which folds their rank-one updates into the
weights every few steps rather than at each one. It shares the step's
scalar rules (`_lms_rates`) and meets the `lms_step` chain within
rounding.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence

import numpy as np

from markerpred.rnn import NonFiniteError, _clipped_rate
from markerpred.signal import MarkerRecord

__all__ = [
    "lms_step",
    "fit_linreg",
    "predict_linreg",
    "no_prediction",
]

# Finite squared norms of at least this are dot products whose rounding is
# relative: the squares in them that underflow change them by far less than
# one unit roundoff. For smaller or overflowing ones `_lms_rates` takes the
# norms with math.hypot, which is within an ulp at any magnitude.
_TINY_SQUARES = 2.0 ** -960

# A diagonal entry of R below this times the largest marks a design as
# rank-deficient, and `fit_linreg` fits it by SVD.
_RANK_RTOL = 1e-8

# Rows per diagonal block of `_solve_upper`.
_SOLVE_BLOCK = 64


def lms_step(
    w: np.ndarray,
    u: np.ndarray,
    y_star: np.ndarray,
    eta: float,
    tau: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One LMS update of the weights w (p x (m+1)) on the pair (u, y*): the
    one-step oracle of the harness's block learner.

    Predicts y = W u, then descends the instantaneous square loss whose
    gradient in W is -e u^T (e = y* - y), clipped at tau in the norm of the
    flattened matrix (the Frobenius norm) to match the RNN trainers'
    treatment, at learning rate eta. The gradient has rank one, so its
    norm is gn = ||e|| ||u||, each factor the square root of a dot product
    (or math.hypot when a squared norm is below 2^-960 or overflows). The
    step adds the update (c e) u^T to W, formed as one BLAS product of a
    column and a row, with c = eta * tau' / gn when gn > tau' and c = eta
    otherwise, where tau' = tau * (1 - (p + m + 33) 2^-53)
    (`rnn._clipped_rate`, which the UORO and RTRL steps share). The scalar
    rules are `_lms_rates`, which the block learner shares.

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

    Finiteness: the new weights are scanned, so a NaN or an overflow in
    them is caught at the step it appears in. The squared norms are taken
    with numpy's overflow warning off: an overflowing one is handled by
    math.hypot, not reported.

    Args:
        w: current weights, p x (m+1). Not written to.
        u: input, m+1 entries. Not written to.
        y_star: target, p entries.
        eta: learning rate, >= 0.
        tau: clip threshold, > 0.

    Returns:
        (new_w, y, loss): the updated weights (a fresh array), the
        prediction made before the update, and its loss.

    Raises:
        ValueError: w is not a matrix, eta < 0, tau <= 0, or u or y_star
            does not fit w.
        NonFiniteError: the loss or the updated weights stopped being
            finite ("loss" or "weights").
    """
    if w.ndim != 2:
        raise ValueError(f"W must be a matrix, got shape {w.shape}")
    p, n_in = w.shape
    if not (eta >= 0 and tau > 0):
        raise ValueError(f"need eta >= 0 and tau > 0, got eta={eta}, tau={tau}")
    if u.shape != (n_in,):
        raise ValueError(f"u has shape {u.shape}, expected ({n_in},)")
    if y_star.shape != (p,):
        raise ValueError(f"y_star has shape {y_star.shape}, expected ({p},)")
    y = w @ u
    e = y_star - y
    with np.errstate(over="ignore"):
        (loss_value,), (rate,), gone = _lms_rates(e[None], u, (eta,), tau)
    if gone:
        raise NonFiniteError("loss")
    update = np.dot((rate * e).reshape(p, 1), u[None, :])
    new_w = np.add(w, update, out=update)
    if not np.isfinite(new_w).all():
        raise NonFiniteError("weights")
    return new_w, y, loss_value


def _lms_rates(
    e: np.ndarray, u: np.ndarray, eta: Sequence[float], tau: float,
) -> tuple[list[float], list[float], list[int]]:
    """The scalar rules of an LMS step, for B learners that read one input
    u: e is their B x p errors and eta their rates. Returns each learner's
    loss 0.5 ||e||^2 and its clipped rate c (see `lms_step`), and the
    learners whose loss is not finite, which take the rate 0.

    Each ||e||^2 is one row-by-row dot of a stacked product, as `ddot`
    gives it (`einsum` rounds differently), and every scalar is a Python
    float of its own learner, so no learner's values reach another's.
    ||u||^2 is taken once, and only when a learner steps.
    """
    squares = np.matmul(e[:, None, :], e[:, :, None]).ravel().tolist()
    n_terms = e.shape[1] + u.size
    losses, rates, gone = [], [], []
    u_norm = None
    for k, e_squares in enumerate(squares):
        loss_value = 0.5 * e_squares
        losses.append(loss_value)
        if not math.isfinite(loss_value):
            gone.append(k)
            rates.append(0.0)
            continue
        if u_norm is None:
            u_squares = float(u.dot(u))
            u_fine = _TINY_SQUARES <= u_squares < math.inf
            u_norm = math.sqrt(u_squares)
        if e_squares >= _TINY_SQUARES and u_fine:
            grad_norm = math.sqrt(e_squares) * u_norm
        else:
            grad_norm = math.hypot(*e[k]) * math.hypot(*u)
        rates.append(_clipped_rate(eta[k], tau, grad_norm, n_terms))
    return losses, rates, gone


def fit_linreg(
    U: np.ndarray, Y: np.ndarray, context: str | None = None
) -> np.ndarray:
    """Ordinary least squares over a design (`signal.design_matrix`): the
    weights W (p x (m+1)) of the least-squares map y = W u, for inputs u
    the rows of U (n x (m+1)) and targets y* the rows of Y (n x p).

    Solves min_W sum ||y* - W u||^2 from a Householder R factor
    (`numpy.linalg.qr` with mode "r", which never forms Q). With at least
    as many samples as inputs, the R of [U | Y] holds U's R beside Q^T Y,
    and W^T = R^-1 Q^T Y. With fewer, the system is under-determined and W
    is its minimal-norm solution: U^T = Q R gives U U^T = R^T R, and W^T =
    U^T R^-1 R^-T Y by the semi-normal equations, which are stable for such
    consistent systems (Bjorck, Numerical Methods for Least Squares
    Problems, 2.5). A diagonal entry of R below 1e-8 times the largest
    marks the design as rank-deficient (a constant coordinate whose column
    is parallel to the bias column gives one); such a design, or a solve
    that is not finite, is fit by singular value decomposition
    (`numpy.linalg.lstsq`) instead, whose W is again the minimal-norm one.
    The routes are not bit for bit equal: on the shipped L grid the R
    factor's W is within 2.4e-12 of the SVD's, relatively.

    Fitting with fewer samples than inputs is allowed but warned about;
    `context`, when given, says in that warning and in the errors on an
    empty or non-finite design what was fit (the harness names the
    sequence, L and h).
    """
    if U.ndim != 2 or Y.ndim != 2 or U.shape[0] != Y.shape[0]:
        raise ValueError(
            f"need matrices U and Y with one row per sample, got shapes "
            f"{U.shape} and {Y.shape}"
        )
    where = "" if context is None else f" ({context})"
    n, m = U.shape
    if n == 0:
        raise ValueError(f"cannot fit on an empty sample collection{where}")
    if not (np.isfinite(U).all() and np.isfinite(Y).all()):
        raise ValueError(f"design matrix contains non-finite values{where}")
    if n < m:
        warnings.warn(
            f"under-determined least squares: {n} samples for {m} "
            f"inputs{where}; using the minimal-norm solution",
            stacklevel=2,
        )
    coeffs = None
    with np.errstate(all="ignore"):
        # An overflow here is caught by the finiteness check below.
        if n >= m:
            R = np.linalg.qr(np.hstack((U, Y)), mode="r")[:m]
            if _full_rank(R[:, :m]):
                coeffs = _solve_upper(R[:, :m], R[:, m:])
        else:
            R = np.linalg.qr(U.T, mode="r")
            if _full_rank(R):
                # R^-1 R^-T Y scales as Y / |U|^2, so R's scale 2^e is
                # divided out, exactly, before the solves and taken out
                # of W one factor at a time: no intermediate overflows or
                # underflows where W itself does not.
                e = math.frexp(np.abs(np.diagonal(R)).max())[1]
                np.ldexp(R, -e, out=R)
                # R^T is upper triangular in reversed row and column order.
                z = _solve_upper(R.T[::-1, ::-1], Y[::-1])[::-1]
                x = np.ldexp(_solve_upper(R, z), -e)
                coeffs = np.ldexp(U.T @ x, -e)
    if coeffs is None or not np.isfinite(coeffs).all():
        coeffs = np.linalg.lstsq(U, Y, rcond=None)[0]
    return coeffs.T


def _full_rank(R: np.ndarray) -> bool:
    """Whether the triangular R's diagonal passes `fit_linreg`'s rank test."""
    d = np.abs(np.diagonal(R))
    return bool(d.min(initial=math.inf) > _RANK_RTOL * d.max(initial=0.0))


def _solve_upper(R: np.ndarray, B: np.ndarray) -> np.ndarray:
    """X with R X = B, for R (k x k) upper triangular with a nonzero
    diagonal, by block back substitution: each diagonal block goes to
    `np.linalg.solve`, whose LU of an upper-triangular block needs no row
    exchange, after the rows solved so far are subtracted by one matrix
    product. One solve of all of R would spend about 2k^3/3 flops on its
    LU; for p columns and blocks of b rows this spends about
    k^2 p + 2k b^2/3."""
    X = np.empty(B.shape)
    for stop in range(R.shape[0], 0, -_SOLVE_BLOCK):
        start = max(0, stop - _SOLVE_BLOCK)
        rhs = B[start:stop] - R[start:stop, stop:] @ X[stop:]
        X[start:stop] = np.linalg.solve(R[start:stop, start:stop], rhs)
    return X


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
