"""Tests for LMS, least squares, and the no-prediction hold."""

import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from markerpred.baselines import (
    fit_linreg,
    lms_learner,
    lms_step,
    no_prediction,
    predict_linreg,
)
from markerpred.harness import CLIP_TAU, DEFAULT_GRIDS
from markerpred.rnn import NonFiniteError, clip_gradient, loss
from markerpred.signal import (
    MarkerRecord,
    WindowedSample,
    design_matrix,
    fit_normalizer,
    iter_windows,
    make_partition,
    synthetic_record,
)
from test_uoro import _assert_warm_steps_stay_below


def _samples(n, m, p, seed=0, w_true=None, noise=0.0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        u = rng.standard_normal(m + 1)
        u[0] = 1.0
        if w_true is None:
            target = rng.standard_normal(p)
        else:
            target = w_true @ u + noise * rng.standard_normal(p)
        out.append(WindowedSample(u=u, target=target, time_index=i, target_index=i + 1))
    return out


def _design(samples):
    """The samples' inputs and targets stacked, one row each, as
    `signal.design_matrix` gives them."""
    return np.stack([s.u for s in samples]), np.stack([s.target for s in samples])


# ------------------------------- LMS ---------------------------------------


def test_lms_step_zero_error_keeps_weights():
    w = np.zeros((2, 5))
    new_w, _, loss_value = lms_step(w, np.ones(5), np.zeros(2), eta=0.1, tau=2.0)
    assert np.array_equal(new_w, w)
    assert loss_value == 0.0


def test_lms_step_zero_rate_keeps_weights():
    rng = np.random.default_rng(1)
    w = rng.standard_normal((2, 5))
    u = rng.standard_normal(5)
    y_star = rng.standard_normal(2)
    new_w, y, _ = lms_step(w, u, y_star, eta=0.0, tau=2.0)
    assert np.array_equal(new_w, w)
    assert np.array_equal(y, w @ u)


def test_lms_step_leaves_inputs_untouched_and_returns_fresh_weights():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((3, 6))
    u = rng.standard_normal(6)
    y_star = rng.standard_normal(3)
    w_before, u_before = w.copy(), u.copy()
    for tau in (1e-3, 1e3):  # clipped and unclipped
        new_w, _, _ = lms_step(w, u, y_star, eta=0.5, tau=tau)
        np.testing.assert_array_equal(w, w_before)
        np.testing.assert_array_equal(u, u_before)
        assert not np.shares_memory(new_w, w)
        assert not np.shares_memory(new_w, u)
        assert not np.array_equal(new_w, w)


def test_lms_step_descends_on_fixed_pair():
    rng = np.random.default_rng(2)
    w = np.zeros((3, 7))
    u = rng.standard_normal(7)
    u[0] = 1.0
    y_star = rng.standard_normal(3)
    losses = []
    for _ in range(10):
        w, _, loss_value = lms_step(w, u, y_star, eta=0.01, tau=2.0)
        losses.append(loss_value)
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_lms_step_clips_flattened_gradient():
    w = np.zeros((2, 4))
    u = np.full(4, 10.0)
    y_star = np.full(2, 10.0)
    new_w, _, _ = lms_step(w, u, y_star, eta=1.0, tau=2.0)
    update = w - new_w  # eta = 1
    assert np.linalg.norm(update) <= 2.0 * (1 + 1e-12)


def test_lms_realizable_tracks_true_weights():
    # With the clip inactive and a consistent linear target, the weight
    # error shrinks monotonically over epochs on a fixed batch.
    rng = np.random.default_rng(3)
    m, p = 5, 2
    w_true = rng.standard_normal((p, m + 1))
    batch = _samples(20, m, p, seed=4, w_true=w_true)
    w = np.zeros((p, m + 1))
    dist = [np.linalg.norm(w - w_true)]
    for _ in range(15):
        for s in batch:
            w, _, _ = lms_step(w, s.u, s.target, eta=0.02, tau=1e12)
        dist.append(np.linalg.norm(w - w_true))
    assert all(b < a for a, b in zip(dist, dist[1:]))


def test_lms_step_shape_checks():
    w = np.zeros((2, 4))
    with pytest.raises(ValueError, match="u has shape"):
        lms_step(w, np.zeros(3), np.zeros(2), eta=0.1, tau=2.0)
    with pytest.raises(ValueError, match="y_star has shape"):
        lms_step(w, np.zeros(4), np.zeros(3), eta=0.1, tau=2.0)
    for w in (np.zeros(4), np.zeros((1, 2, 4))):
        with pytest.raises(ValueError, match="W must be a matrix"):
            lms_step(w, np.zeros(4), np.zeros(2), eta=0.1, tau=2.0)


@pytest.mark.parametrize("eta, tau", [
    (-0.1, 2.0), (np.nan, 2.0), (0.1, 0.0), (0.1, -1.0), (0.1, np.nan),
])
def test_lms_step_rejects_bad_rate_or_clip(eta, tau):
    with pytest.raises(ValueError, match="need eta >= 0 and tau > 0"):
        lms_step(np.zeros((2, 4)), np.ones(4), np.ones(2), eta=eta, tau=tau)


def test_lms_step_nonfinite_detected():
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteError):
        lms_step(np.zeros((2, 4)), np.array([1.0, np.inf, 0.0, 0.0]),
                 np.ones(2), eta=0.1, tau=2.0)


def _reference_lms_step(w, u, y_star, eta, tau):
    """The LMS step on its formed gradient, as it was composed before the
    closed form: clip_gradient on the outer product, then a full
    finiteness scan of the weights. An oracle that `lms_step` meets within
    the tolerances measured below, not bit for bit."""
    y = w @ u
    e, loss_value = loss(y, y_star)
    if not np.isfinite(loss_value):
        raise NonFiniteError("loss")
    grad = clip_gradient(np.outer(-e, u), tau)
    new_w = w - eta * grad
    if not np.isfinite(new_w).all():
        raise NonFiniteError("weights")
    return new_w, y, loss_value


def _closed_form_lms_step(w, u, y_star, eta, tau):
    """The LMS step as `lms_step`'s docstring states it, composed from
    public pieces: the loss, the gradient norm as ||e|| ||u||, tau shrunk
    by (p + m + 33) units of 2^-53, and the update (c e) u^T added to w,
    then a full finiteness scan. For squared norms of e and u at least
    2^-960, where `lms_step` takes the norms from dot products."""
    y = w @ u
    e, loss_value = loss(y, y_star)
    if not np.isfinite(loss_value):
        raise NonFiniteError("loss")
    grad_norm = np.linalg.norm(e) * np.linalg.norm(u)
    tau_shrunk = tau * (1.0 - (e.size + u.size + 32) * 2.0 ** -53)
    c = eta * (tau_shrunk / grad_norm) if grad_norm > tau_shrunk else eta
    new_w = w + np.outer(c * e, u)
    if not np.isfinite(new_w).all():
        raise NonFiniteError("weights")
    return new_w, y, loss_value


# The largest difference from the formed-gradient oracle over the 1000
# chained steps below, relative to the largest oracle weight or
# prediction, measured 2.8e-14 (weights) and 8.2e-14 (predictions) when
# clipping and 8.4e-16 and 4.1e-16 when not. Each chain rounds its own way
# and feeds its weights forward; the bounds allow about 30 times that.
_ORACLE_RTOL = {True: 2.5e-12, False: 2.5e-14}


@pytest.mark.parametrize("eta, tau, clipping", [(0.1, 0.5, True), (0.005, 1e3, False)])
def test_lms_step_matches_reference_over_chained_steps(eta, tau, clipping):
    record = synthetic_record(duration_s=110.0, seed=21)
    norm = fit_normalizer(record, range(0, 300))
    L, h = 10, 5
    samples = list(iter_windows(record, norm, L, h, range(1000)))
    got = closed = want = np.zeros((3 * record.n_markers,
                                    3 * record.n_markers * L + 1))
    n_clipped = 0
    w_gap = y_gap = w_max = y_max = 0.0
    for s in samples:
        e = s.target - want @ s.u
        n_clipped += np.linalg.norm(np.outer(-e, s.u)) > tau
        got, y, loss_value = lms_step(got, s.u, s.target, eta, tau)
        closed, closed_y, closed_loss = _closed_form_lms_step(
            closed, s.u, s.target, eta, tau)
        want, want_y, want_loss = _reference_lms_step(want, s.u, s.target,
                                                      eta, tau)
        assert got.tobytes() == closed.tobytes()
        assert y.tobytes() == closed_y.tobytes()
        assert loss_value == closed_loss
        w_gap = max(w_gap, np.abs(got - want).max())
        y_gap = max(y_gap, np.abs(y - want_y).max())
        w_max = max(w_max, np.abs(want).max())
        y_max = max(y_max, np.abs(want_y).max())
    assert w_gap <= _ORACLE_RTOL[clipping] * w_max
    assert y_gap <= _ORACLE_RTOL[clipping] * y_max
    assert (n_clipped > 500) if clipping else (n_clipped == 0)


def test_lms_step_matches_reference_bit_for_bit_at_exact_zeros():
    # One coordinate is constant, so it normalizes to exactly 0: its
    # entries u_j of every window are 0, and so are its target and, from
    # the zero start, its prediction, so its error e_i is 0 at every step.
    # Their products are +0 in the BLAS outer product and may be -0 in
    # np.outer; the new weights must be the closed form's, signs of zeros
    # included, and stay +0 in that row.
    record = synthetic_record(duration_s=60.0, seed=4)
    positions = record.positions.copy()
    positions[:, 1, 2] = 12.5
    record = MarkerRecord(positions=positions,
                          sample_period=record.sample_period)
    with pytest.warns(UserWarning, match="constant"):
        norm = fit_normalizer(record, range(0, 300))
    L = 4
    samples = list(iter_windows(record, norm, L, 3, range(400)))
    assert (samples[0].u[1 + 5 :: 3 * record.n_markers] == 0.0).all()
    p, n_in = 3 * record.n_markers, 3 * record.n_markers * L + 1
    got = want = oracle = np.zeros((p, n_in))
    for s in samples:
        got, y, loss_value = lms_step(got, s.u, s.target, 0.3, 0.5)
        want, want_y, want_loss = _closed_form_lms_step(want, s.u, s.target,
                                                        0.3, 0.5)
        oracle, _, _ = _reference_lms_step(oracle, s.u, s.target, 0.3, 0.5)
        assert y.tobytes() == want_y.tobytes()
        assert loss_value == want_loss
        assert got.tobytes() == want.tobytes()
    assert (got[5] == 0.0).all() and not np.signbit(got[5]).any()
    # Measured: 7.7e-13 of the oracle's largest weight.
    assert np.abs(got - oracle).max() <= 1e-11 * np.abs(oracle).max()


def test_lms_step_accepts_huge_finite_weights():
    # The weights' squared norm overflows, so the pure call's bound is
    # infinite and finiteness falls back to the full scan, which passes.
    w = np.full((2, 4), 1e200)
    w[:, 0] = 0.0
    u = np.array([1.0, 0.0, 0.0, 0.0])
    y_star = np.array([3.0, -1.0])
    with np.errstate(over="ignore"):
        new_w, _, _ = lms_step(w, u, y_star, eta=0.1, tau=2.0)
        want, _, _ = _closed_form_lms_step(w, u, y_star, eta=0.1, tau=2.0)
        oracle, _, _ = _reference_lms_step(w, u, y_star, eta=0.1, tau=2.0)
        assert np.isinf(np.linalg.norm(new_w))
    assert new_w.tobytes() == want.tobytes()
    # The step clips, and its factor is the oracle's shrunk by
    # (p + m + 33) 2^-53 = 4.2e-15 (measured: 4.4e-15 apart).
    np.testing.assert_allclose(new_w, oracle, rtol=1e-14)


# The clip rule holds where the step's rounding is relative; see lms_step.
_RULE_RANGE = (2.0 ** -998, 2.0 ** 998)


@st.composite
def _clip_rule_cases(draw):
    """Zero weights, and an error y* and input u whose entries span tiny to
    huge magnitudes, with exact zeros; tau near the gradient norm, so that
    about half the steps clip; a rate from 2^-61 to 2^60."""

    def vector(size, exponent):
        return np.array([
            math.ldexp(draw(st.sampled_from([0.0, 1.0, -1.0]))
                       * draw(st.floats(0.5, 1.0)),
                       exponent - draw(st.integers(0, 40)))
            for _ in range(size)
        ])

    p, n_in = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    # ||y*||^2 must not overflow, or the loss does.
    k_e = draw(st.integers(-990, 500))
    k_u = draw(st.integers(max(-990, -990 - k_e), min(990, 990 - k_e)))
    y_star, u = vector(p, k_e), vector(n_in, k_u)
    grad_norm = math.hypot(*y_star) * math.hypot(*u)
    tau = grad_norm * math.ldexp(draw(st.floats(0.5, 1.0)),
                                 draw(st.integers(-4, 4)))
    if not 0.0 < tau < math.inf:
        tau = 1.0
    eta = math.ldexp(draw(st.floats(0.5, 1.0)), draw(st.integers(-60, 60)))
    return y_star, u, eta, tau


@settings(max_examples=400, deadline=None)
@given(_clip_rule_cases())
def test_lms_step_update_never_exceeds_eta_tau(case):
    # From zero weights the new weights are the update (c e) u^T as
    # formed; its exact Frobenius norm, over eta, is at most tau.
    y_star, u, eta, tau = case
    w = np.zeros((y_star.size, u.size))
    if not (y_star.any() and u.any()):
        new_w, _, _ = lms_step(w, u, y_star, eta, tau)
        assert not new_w.any()
        return
    e_norm, u_norm = math.hypot(*y_star), math.hypot(*u)
    grad_norm = e_norm * u_norm
    c = eta * min(1.0, tau / grad_norm)
    low, high = _RULE_RANGE
    assume(all(low <= v <= high for v in (tau, eta * tau, e_norm, u_norm,
                                          grad_norm, c, c * e_norm)))
    # A huge u's squares overflow their dot product; the step then takes
    # ||u|| with math.hypot.
    new_w, _, _ = lms_step(w, u, y_star, eta, tau)
    squares = sum(Fraction(x) ** 2 for x in new_w.ravel().tolist())
    assert squares <= (Fraction(eta) * Fraction(tau)) ** 2


def test_lms_step_overflowing_input_squares_warn_nothing():
    # Finite inputs whose squares overflow the dot product: the step takes
    # ||u|| with math.hypot, and numpy's overflow warning is not raised on
    # the way, so a caller that treats warnings as errors gets the step.
    w = np.zeros((2, 4))
    u = np.array([1.0, 1e160, -1e160, 0.0])
    y_star = np.array([3.0, -1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        new_w, y, loss_value = lms_step(w, u, y_star, eta=0.1, tau=2.0)
    assert not y.any() and loss_value == 5.0
    # The update is clipped, to eta * tau.
    assert np.linalg.norm(new_w) == pytest.approx(0.2, rel=1e-12)


def _lms_chains(samples, eta):
    """Run the LMS learner, chained pure `lms_step` calls and the
    formed-gradient oracle over samples, all at the learner's clip
    threshold; for each, the index of the step that raised and the
    quantity it named, or None."""
    n_in, p = samples[0].u.size, samples[0].target.size
    learner = lms_learner([eta], n_in - 1, p, CLIP_TAU)

    def pure(kernel):
        w = np.zeros((p, n_in))

        def step(u, y_star):
            nonlocal w
            w, y, loss_value = kernel(w, u, y_star, eta, CLIP_TAU)
            return y, loss_value

        return step

    outcomes = []
    for step in (learner, pure(lms_step), pure(_reference_lms_step)):
        outcome = None
        with np.errstate(over="ignore", invalid="ignore"):
            for i, s in enumerate(samples):
                try:
                    step(s.u, s.target)
                except NonFiniteError as err:
                    outcome = (i, err.quantity)
                    break
        outcomes.append(outcome)
    return outcomes


@pytest.mark.parametrize("eta, plant, want", [
    # An infinite input entry makes that step's prediction, and so its
    # loss, non-finite.
    (0.1, "inf_input", (300, "loss")),
    # A rate near the largest double: the first update is finite but
    # vast, so the second prediction overflows.
    (1e307, None, (1, "loss")),
    # A rate past half the largest double on a bias-only input and a
    # target of one non-zero coordinate: the first update overflows, the
    # learner's bound is infinite, and the scan finds it.
    (1.5e308, "bias_only", (0, "weights")),
])
def test_planted_divergence_raises_where_the_oracle_does(eta, plant, want):
    record = synthetic_record(duration_s=60.0, seed=5)
    norm = fit_normalizer(record, range(0, 300))
    samples = list(iter_windows(record, norm, 10, 3, range(400)))
    if plant == "inf_input":
        samples[300].u[7] = np.inf
    elif plant == "bias_only":
        for s in samples:
            s.u[1:] = 0.0
            s.target[:] = 0.0
            s.target[0] = 10.0
    outcomes = _lms_chains(samples, eta)
    assert outcomes == [want] * 3
@pytest.mark.parametrize("eta", [1.5e308, np.inf])
def test_lms_step_overflowing_weights_raise(eta):
    # A finite loss and a clipped gradient, but eta * grad overflows to inf
    # (and is NaN where the gradient is 0 and eta is inf).
    w = np.zeros((2, 4))
    u = np.array([1.0, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError) as err:
            lms_step(w, u, np.full(2, 10.0), eta=eta, tau=2.0)
        with pytest.raises(NonFiniteError) as ref:
            _reference_lms_step(w, u, np.full(2, 10.0), eta=eta, tau=2.0)
    assert err.value.quantity == ref.value.quantity == "weights"


# ------------------------------ LMS batches --------------------------------


def _block_lms_chain(samples, eta, tau=CLIP_TAU, block=8):
    """One LMS learner as `lms_learner`'s docstring states it,
    composed from lists and the closed-form scalars of
    `_closed_form_lms_step`: the weights W0 as of the last fold, the
    pending inputs u_s and scaled errors c_s e_s, the prediction
    W0 u + P (U u), the fold W0 + P U every `block` steps from the start,
    and, once n eta tau passes half the largest double, a check of
    W0 + P U that does not fold. Returns each step's prediction and loss,
    and the (step, quantity) it diverged at, or None. For squared norms of
    e and u at least 2^-960."""
    p, n_in = samples[0].target.size, samples[0].u.size
    w0 = np.zeros((p, n_in))
    us, ces, ys, losses = [], [], [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, s in enumerate(samples):
            y = w0 @ s.u
            if us:
                y = y + np.stack(ces, axis=1) @ (np.stack(us) @ s.u)
            e, loss_value = loss(y, s.target)
            if not np.isfinite(loss_value):
                return ys, losses, (i, "loss")
            grad_norm = np.linalg.norm(e) * np.linalg.norm(s.u)
            tau_shrunk = tau * (1.0 - (p + n_in + 32) * 2.0 ** -53)
            c = eta * (tau_shrunk / grad_norm) if grad_norm > tau_shrunk else eta
            us.append(s.u.copy())
            ces.append(c * e)
            if ((i + 1) * (eta * tau) > 0.5 * sys.float_info.max
                    and not np.isfinite(
                        w0 + np.stack(ces, axis=1) @ np.stack(us)).all()):
                return ys, losses, (i, "weights")
            if len(us) == block:
                w0 = w0 + np.stack(ces, axis=1) @ np.stack(us)
                us, ces = [], []
            ys.append(y)
            losses.append(loss_value)
    return ys, losses, None


def _learner_chain(samples, eta):
    """One rate's one-slot learner over samples: each step's prediction
    and loss, and the (step, quantity) it raised at, or None."""
    p, n_in = samples[0].target.size, samples[0].u.size
    learner = lms_learner([eta], n_in - 1, p, CLIP_TAU)
    ys, losses = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, s in enumerate(samples):
            try:
                (y,), (loss_value,) = learner(s.u, s.target)
            except NonFiniteError as err:
                return ys, losses, (i, err.quantity)
            ys.append(y)
            losses.append(loss_value)
    return ys, losses, None


def _lms_samples(L, n, plant=None, quiet=0):
    """Windows of a synthetic record; "bias_only" keeps only the bias
    input and one target of 10, and the first `quiet` targets are zero,
    so that no learner moves from its zero start before step `quiet`."""
    record = synthetic_record(duration_s=110.0, seed=21)
    samples = list(iter_windows(record, fit_normalizer(record, range(300)),
                                L, 5, range(n)))
    if plant == "bias_only":
        for s in samples:
            s.u[1:] = 0.0
            s.target[:] = 0.0
            s.target[0] = 10.0
    for s in samples[:quiet]:
        s.target[:] = 0.0
    return samples


# Rates of the shipped LMS grid, as the harness batches them.
_GRID_ETAS = (0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2)


@pytest.mark.parametrize("L", [10, 90])
@pytest.mark.parametrize("etas", [_GRID_ETAS[5:6], _GRID_ETAS[2:4],
                                  _GRID_ETAS])
def test_lms_batch_equals_single_chains_bit_for_bit(L, etas):
    # B = 1, 2 and 7 slots over one stream, across 75 folds: every slot's
    # prediction and loss at every step equal its one-slot learner's and
    # the block reference's.
    samples = _lms_samples(L, 600)
    chains = [_block_lms_chain(samples, eta) for eta in etas]
    p, n_in = samples[0].target.size, samples[0].u.size
    learner = lms_learner(etas, n_in - 1, p, CLIP_TAU)
    alone = [lms_learner([eta], n_in - 1, p, CLIP_TAU) for eta in etas]
    for i, s in enumerate(samples):
        y, losses = learner(s.u, s.target)
        for k, (ys, chain_losses, outcome) in enumerate(chains):
            assert outcome is None
            (alone_y,), (alone_loss,) = alone[k](s.u, s.target)
            assert y[k].tobytes() == alone_y.tobytes() == ys[i].tobytes()
            assert losses[k] == alone_loss == chain_losses[i]


@pytest.mark.parametrize("eta, plant, quiet, want", [
    # The first update is vast but finite; the second prediction's loss
    # overflows.
    (1e300, None, 0, (1, "loss")),
    # The first update overflows; the slot's bound fails and the scan
    # finds it.
    (1.5e308, "bias_only", 0, (0, "weights")),
    # A loss overflow between folds: the targets are zero until step 11,
    # whose update is vast, so step 12 (4 steps past the fold) overflows.
    (1e300, None, 11, (12, "loss")),
    # A bound failure between folds: the bound fails from step 0, and the
    # scans pass (across the fold after step 7) while the error is zero;
    # step 11's update overflows, 3 steps past the fold.
    (1.5e308, "bias_only", 11, (11, "weights")),
    # A slot dropped at the last step of a block: its rows go before the
    # fold that ends that step, and the neighbours fold without them.
    (1e300, None, 14, (15, "loss")),
])
def test_lms_batch_planted_divergence_stays_in_its_slot(eta, plant, quiet,
                                                        want):
    # One slot with a huge rate among the grid's: it diverges alone, at
    # the step and with the quantity of its one-slot learner, of the block
    # reference and of the formed-gradient oracle; the neighbours run on,
    # bit for bit their one-slot learners, and the dropped slot's outputs
    # are NaN from then on.
    samples = _lms_samples(10, 300, plant, quiet)
    etas = list(_GRID_ETAS[:3]) + [eta] + list(_GRID_ETAS[3:])
    assert _lms_chains(samples, eta)[2] == want
    assert _block_lms_chain(samples, eta)[2] == want
    chains = [_learner_chain(samples, rate) for rate in etas]
    assert [chain[2] for chain in chains] == [None] * 3 + [want] + [None] * 4
    p, n_in = samples[0].target.size, samples[0].u.size
    diverged = {}
    learner = lms_learner(etas, n_in - 1, p, CLIP_TAU, diverged)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, s in enumerate(samples):
            y, losses = learner(s.u, s.target)
            for k, (ys, chain_losses, _) in enumerate(chains):
                if k == 3 and i >= want[0]:
                    assert np.isnan(y[k]).all() and math.isnan(losses[k])
                    continue
                assert y[k].tobytes() == ys[i].tobytes()
                assert losses[k] == chain_losses[i]
    assert diverged == {3: want}


def test_lms_batch_whose_every_slot_diverges_raises():
    # A batch of one is a one-learner step: the step at which its last
    # slot goes raises, after recording it.
    samples = _lms_samples(10, 10)
    p, n_in = samples[0].target.size, samples[0].u.size
    diverged = {}
    learner = lms_learner([1e300, 1e301], n_in - 1, p, CLIP_TAU, diverged)
    with np.errstate(over="ignore", invalid="ignore"):
        learner(samples[0].u, samples[0].target)
        with pytest.raises(NonFiniteError) as err:
            learner(samples[1].u, samples[1].target)
    assert err.value.quantity == "loss"
    assert diverged == {0: (1, "loss"), 1: (1, "loss")}


def test_lms_batch_keeps_a_frozen_slots_record():
    # Slot 0 goes at step 1 and is frozen. Step 3's pending inputs dot
    # u to an infinity, which makes every slot's prediction NaN, the
    # frozen slot's included: the last slot goes, and the frozen slot
    # keeps the step and quantity at which it went.
    rng = np.random.default_rng(0)
    m, p = 20, 3
    inputs = rng.uniform(-1.0, 1.0, size=(4, m + 1))
    inputs[:, 0] = 1.0
    inputs[2] *= 1e150
    inputs[3] *= 1e158
    targets = rng.uniform(-1.0, 1.0, size=(4, p))
    diverged = {}
    learner = lms_learner([1e300, 0.01], m, p, CLIP_TAU, diverged)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(3):
            learner(inputs[i], targets[i])
        with pytest.raises(NonFiniteError):
            learner(inputs[3], targets[3])
    assert diverged == {0: (1, "loss"), 1: (3, "loss")}



def test_lms_batch_slot_past_its_last_step_is_frozen_and_never_recorded():
    # Slot 1 of three stops after step 11, between the folds that end
    # steps 7 and 15. From step 12 on it is fed NaN targets, as the
    # harness feeds a slot past its last anchor: it is never recorded, its
    # row of y and its loss are NaN, and no floating-point error is
    # raised. Up to step 11 it, and at every step its neighbours, are bit
    # for bit a batch without a stop fed the true targets. Without the
    # stop rule its NaN loss would record it as diverged at step 12.
    rng = np.random.default_rng(3)
    m, p, n = 30, 3, 30
    inputs = rng.uniform(-1.0, 1.0, size=(n, m + 1))
    inputs[:, 0] = 1.0
    targets = rng.uniform(-1.0, 1.0, size=(n, p))
    etas = [0.01, 0.05, 0.2]
    diverged = {}
    learner = lms_learner(etas, m, p, CLIP_TAU, diverged,
                          last=[n - 1, 11, n - 1])
    free = lms_learner(etas, m, p, CLIP_TAU)
    for i in range(n):
        fed = np.tile(targets[i], (3, 1))
        if i > 11:
            fed[1] = np.nan
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            y, losses = learner(inputs[i], fed)
        want, want_losses = free(inputs[i], targets[i])
        for k in range(3):
            if k == 1 and i > 11:
                assert np.isnan(y[k]).all() and math.isnan(losses[k])
            else:
                assert y[k].tobytes() == want[k].tobytes(), (i, k)
                assert losses[k] == want_losses[k]
    assert diverged == {}


def test_lms_batch_whose_last_live_slot_diverges_after_a_stop_raises():
    # Slot 0 stops after step 0 and slot 1, at eta = 1e300, goes at step
    # 1: every slot has then stopped or diverged, so the step raises, as
    # the step at which a batch's last slot goes does. Only slot 1 is
    # recorded.
    rng = np.random.default_rng(4)
    m, p = 20, 3
    inputs = rng.uniform(-1.0, 1.0, size=(2, m + 1))
    inputs[:, 0] = 1.0
    targets = rng.uniform(-1.0, 1.0, size=(2, p))
    diverged = {}
    learner = lms_learner([0.01, 1e300], m, p, CLIP_TAU, diverged,
                          last=[0, 5])
    learner(inputs[0], targets[0])
    fed = np.stack([np.full(p, np.nan), targets[1]])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="loss"):
            learner(inputs[1], fed)
    assert diverged == {1: (1, "loss")}


def test_online_learner_equals_direct_step_chain():
    # The reference is the block reference, which folds its updates in
    # blocks as the learner does.
    record = synthetic_record(duration_s=80.0, seed=4)
    samples = list(iter_windows(record, fit_normalizer(record, range(300)),
                                10, 4, range(300)))
    m, p = 3 * record.n_markers * 10, 3 * record.n_markers
    lms = lms_learner([0.05], m, p, CLIP_TAU)
    block_ys, block_losses, _ = _block_lms_chain(samples, 0.05)
    for i, sample in enumerate(samples):
        (y,), (loss_value,) = lms(sample.u, sample.target)
        np.testing.assert_array_equal(y, block_ys[i])
        np.testing.assert_array_equal(loss_value, block_losses[i])


# The largest difference of the learner's predictions from the lms_step
# chain's over the 1000 steps below, relative to the chain's largest
# prediction, measured 2.7e-11 when clipping (L = 10; 3.7e-16 at L = 1 and
# 2.3e-14 at L = 90) and 6.9e-15 when not. The block rounds its products
# its own way and each chain feeds its weights forward; the bounds allow
# about 30 times that.
_LMS_CHAIN_RTOL = {True: 1e-9, False: 2e-13}


@pytest.mark.parametrize("L", [1, 10, 90])
@pytest.mark.parametrize("eta, tau, clips", [
    (0.1, CLIP_TAU, True), (0.005, 1e3, False),
])
def test_lms_learner_equals_block_reference_over_1000_steps(L, eta, tau,
                                                            clips):
    # The learner's pending products and folds are BLAS products: every
    # step's prediction and loss must be the block reference's byte for
    # byte, and within _LMS_CHAIN_RTOL of the lms_step chain, which forms
    # the weights at every step.
    record = synthetic_record(duration_s=200.0, seed=4)
    samples = list(iter_windows(record, fit_normalizer(record, range(300)),
                                L, 4, range(1000)))
    m, p = 3 * record.n_markers * L, 3 * record.n_markers
    step = lms_learner([eta], m, p, tau)
    want_ys, want_losses, outcome = _block_lms_chain(samples, eta, tau)
    assert outcome is None
    w = np.zeros((p, m + 1))
    n_clipped = 0
    gap = y_max = 0.0
    for i, sample in enumerate(samples):
        (y,), (loss_value,) = step(sample.u, sample.target)
        assert y.tobytes() == want_ys[i].tobytes()
        assert loss_value == want_losses[i]
        n_clipped += (np.linalg.norm(sample.target - w @ sample.u)
                      * np.linalg.norm(sample.u) > tau)
        w, chain_y, _ = lms_step(w, sample.u, sample.target, eta, tau)
        gap = max(gap, np.abs(y - chain_y).max())
        y_max = max(y_max, np.abs(chain_y).max())
    assert gap <= _LMS_CHAIN_RTOL[clips] * y_max
    assert (n_clipped > 0) == clips


@pytest.mark.parametrize("L, bound", [
    # Its new weights, p x (m+1), and less than as much again, so that no
    # second weight-sized array, nor numpy's outer product buffers, fits in
    # a step. At L = 90, where the step's small vectors take about 800
    # bytes, less than a byte per weight: the learner writes its weights
    # into its own buffers, and the boolean array of a finiteness scan of
    # them would not fit either.
    (10, lambda p, m: 2 * p * (m + 1) * 8),
    (90, lambda p, m: p * (m + 1)),
])
def test_learner_step_allocates_no_weight_sized_temporary(L, bound):
    # After warm-up a learner step writes into the buffers its learner
    # holds. The peak allocation (numpy's small-array temporaries and
    # ufunc buffers) must stay below the bound. The measured steps span
    # two fold periods.
    p = 9
    step = lms_learner([0.1], p * L, p, CLIP_TAU)
    _assert_warm_steps_stay_below(step, p * L, p, bound(p, p * L),
                                  n_measured=16)

@pytest.mark.parametrize("L, bound", [
    # The one-slot bounds of the test above, times the B = 7 slots of the
    # shipped LMS grid.
    (10, lambda n_weights: 7 * 2 * n_weights * 8),
    (90, lambda n_weights: 7 * n_weights),
])
def test_lms_batch_step_allocates_no_weight_sized_temporary(L, bound):
    p = 9
    step = lms_learner(DEFAULT_GRIDS["lms"]["eta"], p * L, p, CLIP_TAU)
    _assert_warm_steps_stay_below(step, p * L, p, bound(p * (p * L + 1)))


def test_lms_batch_freezes_a_diverged_slot_without_allocating():
    # One slot of the shipped 7 at L = 90 diverges: the targets are zero
    # until step 5, whose update is vast for the slot with eta = 1e300, so
    # its loss overflows at step 6. That step and the ten after it, across
    # two folds, each allocate less than the L = 90 bound of the batch
    # test above: the slot is frozen in its rows, and the batch re-allocates
    # no weights, spare or pending buffer without it. A frozen slot never
    # steps again, so the steps after it raise no floating-point error.
    p, L = 9, 90
    m = p * L
    etas = list(DEFAULT_GRIDS["lms"]["eta"])
    etas[3] = 1e300
    diverged = {}
    step = lms_learner(etas, m, p, CLIP_TAU, diverged)
    rng = np.random.default_rng(5)
    inputs = rng.uniform(-1.0, 1.0, size=(17, m + 1))
    inputs[:, 0] = 1.0
    targets = rng.uniform(-1.0, 1.0, size=(17, p))
    targets[:5] = 0.0
    bound = 7 * p * (m + 1)
    for i in range(6):
        step(inputs[i], targets[i])
    tracemalloc.start()
    try:
        for i in range(6, 17):
            errors = "ignore" if i == 6 else "raise"
            with np.errstate(over=errors, invalid=errors):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                y, losses = step(inputs[i], targets[i])
                peak = tracemalloc.get_traced_memory()[1] - before
            assert peak < bound, (i, peak)
    finally:
        tracemalloc.stop()
    assert diverged == {3: (6, "loss")}
    assert np.isnan(y[3]).all() and math.isnan(losses[3])
    assert np.isfinite(np.delete(y, 3, axis=0)).all()


# --------------------------- linear regression -----------------------------


def test_fit_linreg_realizable_residual():
    rng = np.random.default_rng(5)
    w_true = rng.standard_normal((3, 8))
    samples = _samples(50, m=7, p=3, seed=6, w_true=w_true)
    w = fit_linreg(*_design(samples))
    residual = max(
        np.linalg.norm(predict_linreg(w, s.u) - s.target) for s in samples
    )
    assert residual <= 1e-8


def test_fit_linreg_single_sample_exact():
    sample = _samples(1, m=3, p=2, seed=7)[0]
    with pytest.warns(UserWarning, match="under-determined"):
        w = fit_linreg(*_design([sample]))
    assert np.allclose(predict_linreg(w, sample.u), sample.target, atol=1e-10)


def test_fit_linreg_orthogonal_residuals():
    # Least-squares residuals are orthogonal to the design columns.
    U, Y = _design(_samples(60, m=9, p=4, seed=8))
    w = fit_linreg(U, Y)
    R = Y - U @ w.T
    assert np.linalg.norm(U.T @ R) <= 1e-8 * np.linalg.norm(Y)


def test_fit_linreg_affine_equivariance():
    samples = _samples(40, m=5, p=2, seed=9)
    U, Y = _design(samples)
    base = fit_linreg(U, Y)
    moved = fit_linreg(U, Y + 7.5)
    for s in samples[:5]:
        assert np.allclose(
            predict_linreg(moved, s.u), predict_linreg(base, s.u) + 7.5, atol=1e-8
        )


def test_fit_linreg_rejects_empty():
    with pytest.raises(ValueError, match="empty"):
        fit_linreg(np.empty((0, 4)), np.empty((0, 2)))


@pytest.mark.parametrize("u_shape, y_shape", [((5, 4), (4, 2)), ((5, 4), (5,)),
                                              ((4,), (1, 2))])
def test_fit_linreg_rejects_design_of_mismatched_shapes(u_shape, y_shape):
    with pytest.raises(ValueError, match="one row per sample"):
        fit_linreg(np.ones(u_shape), np.ones(y_shape))


def test_predict_linreg_bias_only_returns_intercept():
    w = fit_linreg(*_design(_samples(30, m=4, p=2, seed=10)))
    assert w.shape == (2, 5)
    u = np.zeros(5)
    u[0] = 1.0
    assert np.allclose(predict_linreg(w, u), w[:, 0])
    with pytest.raises(ValueError, match="u has shape"):
        predict_linreg(w, np.zeros(4))


def test_fit_linreg_rejects_non_finite_design_naming_what_was_fit():
    U, Y = _design(_samples(10, m=3, p=2, seed=11))
    U[4, 2] = np.nan
    context = "sequence 'seq', L=1, h=2 steps"
    with pytest.raises(ValueError, match=(
            r"^design matrix contains non-finite values "
            r"\(sequence 'seq', L=1, h=2 steps\)$")):
        fit_linreg(U, Y, context=context)
    Y[0, 0], U[4, 2] = np.inf, 0.0
    with pytest.raises(ValueError, match=r"^design matrix contains "
                                         r"non-finite values$"):
        fit_linreg(U, Y)


def _lstsq_weights(U, Y):
    return np.linalg.lstsq(U, Y, rcond=None)[0].T


def _relative_gap(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


def _shipped_designs(h, seed=0):
    """A synthetic 120 s record's linreg designs over the shipped L grid at
    horizon h: (L, training design, design of the steps after training)."""
    record = synthetic_record(duration_s=120.0, seed=seed)
    train = make_partition(record, "offline_54_6").train
    normalizer = fit_normalizer(record, train)
    for L in DEFAULT_GRIDS["linreg"]["L"]:
        lag = L + h - 1
        n_train = train.stop - lag
        U, Y = design_matrix(record, normalizer, L, h, record.n_steps - lag)
        yield L, (U[:n_train], Y[:n_train]), U[n_train:]


@pytest.mark.parametrize("h", [5, 20])
def test_fit_linreg_matches_lstsq_on_shipped_grid_designs(h):
    # Over-determined (L <= 50), near-square and under-determined (L >= 60)
    # designs: the R-factor fit agrees with the SVD's minimal-norm fit.
    for L, (U, Y), U_held_out in _shipped_designs(h):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "under-determined")
            w = fit_linreg(U, Y)
        w_ref = _lstsq_weights(U, Y)
        assert _relative_gap(w, w_ref) <= 1e-9, L
        for inputs in (U, U_held_out):
            assert _relative_gap(inputs @ w.T, inputs @ w_ref.T) <= 1e-10, L


def _row_space_residual(w, U):
    """The part of w's rows outside U's row space, relative to w."""
    _, sv, vt = np.linalg.svd(U, full_matrices=False)
    basis = vt[sv > sv[0] * 1e-12]
    return np.abs(w - (w @ basis.T) @ basis).max() / np.abs(w).max()


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 30), m=st.integers(1, 30), p=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_fit_linreg_matches_lstsq_on_random_designs(n, m, p, seed):
    rng = np.random.default_rng(seed)
    U = rng.standard_normal((n, m))
    Y = rng.standard_normal((n, p))
    # A residual's share of W grows with cond(U)^2; the bound below holds
    # for both solvers at cond(U) < 1e3.
    assume(np.linalg.cond(U) < 1e3)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "under-determined")
        w = fit_linreg(U, Y)
    assert _relative_gap(w, _lstsq_weights(U, Y)) <= 1e-9
    if n < m:
        # Minimal norm: W's rows lie in U's row space, and W fits exactly.
        assert _row_space_residual(w, U) <= 1e-12
        assert np.abs(U @ w.T - Y).max() <= 1e-10 * np.abs(Y).max()


@pytest.mark.parametrize("n, m", [(8, 12), (20, 6)])
@pytest.mark.parametrize("u_exp, y_exp", [(600, 0), (500, -400), (-500, 300),
                                          (-300, -600)])
def test_fit_linreg_far_scaled_design_matches_lstsq(n, m, u_exp, y_exp):
    # Designs far from unit scale whose W ~ Y / U is a normal double. The
    # under-determined fit forms R^-1 R^-T Y ~ Y / U^2, which would
    # underflow or overflow if R's scale were not divided out first.
    U, Y = _design(_samples(n, m=m - 1, p=2, seed=14))
    U, Y = np.ldexp(U, u_exp), np.ldexp(Y, y_exp)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "under-determined")
        w = fit_linreg(U, Y)
    assert _relative_gap(w, _lstsq_weights(U, Y)) <= 1e-9


def _rank_deficient_design(name):
    """A design whose R factor has a (near-)zero diagonal entry."""
    if name == "constant coordinate":
        positions = synthetic_record(duration_s=120.0, seed=3).positions
        positions[:, 1, 2] = 4.25
        record = MarkerRecord(positions=positions, sample_period=0.1)
        train = make_partition(record, "offline_54_6").train
        with pytest.warns(UserWarning, match="floored"):
            normalizer = fit_normalizer(record, train)
        # The coordinate normalizes to a zero column of U.
        return design_matrix(record, normalizer, 20, 5, train.stop - 24)
    if name == "duplicated column":
        U, Y = _design(_samples(40, m=6, p=2, seed=12))
        return np.column_stack((U, U[:, 3])), Y
    # An under-determined design that holds one sample twice.
    U, Y = _design(_samples(8, m=12, p=2, seed=13))
    return np.vstack((U, U[2])), np.vstack((Y, Y[2]))


@pytest.mark.parametrize("name", ["constant coordinate", "duplicated column",
                                  "duplicated sample"])
def test_fit_linreg_rank_deficient_design_gets_the_minimal_norm_fit(name):
    U, Y = _rank_deficient_design(name)
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "under-determined")
        w = fit_linreg(U, Y)
    # Fit by the SVD itself, so bit for bit the minimal-norm W.
    np.testing.assert_array_equal(w, _lstsq_weights(U, Y))
    if name == "duplicated column":
        # The two copies share their weight evenly.
        np.testing.assert_allclose(w[:, 3], w[:, 7], rtol=1e-12)


def test_fit_linreg_well_conditioned_design_never_reaches_lstsq(monkeypatch):
    designs = [design for L, design, _ in _shipped_designs(5)
               if L in (10, 50, 90)]
    expected = [_lstsq_weights(U, Y) for U, Y in designs]

    def no_lstsq(*args, **kwargs):
        raise AssertionError("fit_linreg fell back to lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    for (U, Y), w_ref in zip(designs, expected):
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "under-determined")
            w = fit_linreg(U, Y)
        assert _relative_gap(w, w_ref) <= 1e-9


# ----------------------------- no prediction -------------------------------


def _record_from_axis(values):
    positions = np.zeros((len(values), 1, 3))
    positions[:, 0, 0] = values
    return MarkerRecord(positions=positions, sample_period=0.1)


def test_no_prediction_constant_signal():
    record = _record_from_axis(np.full(50, 4.2))
    for h in (1, 5, 10):
        for n in range(0, 30):
            pred = no_prediction(record, h, n)
            assert np.array_equal(pred, record.coords(n + h))


def test_no_prediction_ramp_error():
    slope = 0.3
    record = _record_from_axis(slope * np.arange(100.0))
    h = 7
    for n in (0, 10, 50):
        err = np.linalg.norm(no_prediction(record, h, n) - record.coords(n + h))
        assert err == pytest.approx(slope * h, abs=1e-12)


def test_no_prediction_zero_horizon():
    record = _record_from_axis(np.random.default_rng(11).standard_normal(40))
    for n in range(40):
        assert np.array_equal(no_prediction(record, 0, n), record.coords(n))


def test_no_prediction_sinusoid_worst_phase():
    # Closed form: on amplitude-A period-T sine, the held value trails the
    # truth by at most 2 A |sin(pi h dt / T)|, attained at the worst phase.
    A, T, dt, h = 10.0, 4.0, 0.1, 7
    t = np.arange(400) * dt
    phase = -np.pi * h * dt / T
    record = _record_from_axis(A * np.sin(2 * np.pi * t / T + phase))
    bound = 2 * A * abs(np.sin(np.pi * h * dt / T))
    errors = [
        np.linalg.norm(no_prediction(record, h, n) - record.coords(n + h))
        for n in range(400 - h)
    ]
    assert max(errors) <= bound * (1 + 1e-9)
    assert max(errors) == pytest.approx(bound, rel=1e-9)


def test_no_prediction_out_of_range():
    record = _record_from_axis(np.zeros(20))
    with pytest.raises(IndexError):
        no_prediction(record, 5, 15)
    with pytest.raises(IndexError):
        no_prediction(record, 1, -1)
