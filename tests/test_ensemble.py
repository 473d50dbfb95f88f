"""Ensemble polarization traces, echo prediction and echo detection."""

import math
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdrecho import (
    AtomParams,
    Channel,
    EnsembleSpec,
    Pulse,
    PulseSequence,
    detect_echoes,
    ground_state,
    integrate_sequence,
    predict_echo_times,
    run_sequence_hard,
    simulate_ensemble,
    time_grid,
    validate,
)
from cdrecho import ensemble
from cdrecho.ensemble import (
    _TABLE_GAP_RAD,
    TRACE_BUDGET_BYTES,
    EchoEvent,
    _chirp_pays,
    _chirp_sum,
    _cycles,
    _grid,
    _ladder,
    _phase_sum,
    _turns,
    trace_bytes,
)

PI = math.pi
US = 1e-6
SIN_WEAK_HALF = 0.1545084971874737  # sin(0.1 pi) / 2
POP_WEAK = 0.024471741852423214  # sin^2(0.05 pi)
POP_INVERTED = 0.9755282581475768  # cos^2(0.05 pi)
TWO_PI_MHZ = 2 * PI * 1e6
TWO_PI_EXACT = Fraction("6.28318530717958647692528676655900576839433879875021")


def hard_seq(*pulses, t_end):
    return PulseSequence(
        pulses=tuple(Pulse(ch, area, t) for ch, area, t in pulses), t_end=t_end
    )


def two_pulse_seq(tau=10 * US, t_end=25 * US, phi_d=0.1 * PI):
    return hard_seq(
        (Channel.OPTICAL12, phi_d, 0.0),
        (Channel.OPTICAL12, PI, tau),
        t_end=t_end,
    )


def dr_seq():
    return hard_seq(
        (Channel.OPTICAL12, 0.1 * PI, 0.0),
        (Channel.OPTICAL12, PI, 10 * US),
        (Channel.OPTICAL12, PI, 30 * US),
        t_end=45 * US,
    )


def cdr_seq():
    return hard_seq(
        (Channel.OPTICAL12, 0.1 * PI, 0.0),
        (Channel.OPTICAL12, PI, 10 * US),
        (Channel.CONTROL23, PI, 12 * US),
        (Channel.CONTROL23, PI, 16 * US),
        (Channel.OPTICAL12, PI, 30 * US),
        t_end=45 * US,
    )


def detect_echoes_loop(times, pol, seq, threshold_fraction=0.2):
    """Per-sample loop form of detect_echoes: the reference for the vectorized one."""
    dt = float(np.median(np.diff(times)))
    pad = dt * (1.0 + 1e-9)
    excluded = np.zeros(times.size, dtype=bool)
    for p in seq.pulses:
        excluded |= (times >= p.t_start - pad) & (times <= p.t_end + pad)
    mag = np.abs(pol)
    open_mag = mag[~excluded]
    if open_mag.size == 0 or open_mag.max() == 0.0:
        return ()
    thr = threshold_fraction * float(open_mag.max())
    predicted = predict_echo_times(seq)
    window = 3.0 * dt + max((p.duration for p in seq.pulses), default=0.0) + 1e-12
    events = []
    for i in range(1, times.size - 1):
        if excluded[i] or mag[i] < thr:
            continue
        if not (mag[i] > mag[i - 1] and mag[i] >= mag[i + 1]):
            continue
        label = "other"
        if predicted:
            j = int(np.argmin([abs(t - times[i]) for t in predicted]))
            if abs(predicted[j] - times[i]) <= window:
                label = "E1" if j == 0 else ("E2" if j == 1 else "other")
        im_sign = 1 if pol[i].imag >= 0 else -1
        events.append(EchoEvent(float(times[i]), float(mag[i]), im_sign, label))
    return tuple(events)


class TestEnsembleSpec:
    def test_defaults(self):
        spec = EnsembleSpec()
        assert spec.sigma == pytest.approx(2 * PI * 1e6)
        assert spec.n_atoms == 201
        assert spec.span == 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            EnsembleSpec(sigma=0.0)
        with pytest.raises(ValueError):
            EnsembleSpec(n_atoms=200)
        with pytest.raises(ValueError):
            EnsembleSpec(n_atoms=1)
        with pytest.raises(ValueError):
            EnsembleSpec(span=-1.0)

    @pytest.mark.parametrize(
        "sigma_hz, span",
        [
            (1e-300, 5.0),  # 2 sigma^2 underflows to 0: the weights would be 0/0
            (1e10, 1e300),  # span sigma overflows: the comb's edge would be inf
            (1e300, 5.0),  # 2 sigma^2 overflows: _grid's sigma**2 would raise
            (1.4e153, 5.0),  # (span sigma)^2 overflows: _grid's deltas**2 would be inf
        ],
    )
    def test_comb_that_is_not_finite_is_refused(self, sigma_hz, span):
        with pytest.raises(ValueError):
            EnsembleSpec(sigma=2 * PI * sigma_hz, span=span)

    @pytest.mark.parametrize("inside, outside", [(1.6e-162, 1.5e-162), (9.4e153, 9.5e153)])
    def test_sigma_at_the_edges_of_the_float_range(self, inside, outside):
        _, weights = _grid(EnsembleSpec(sigma=inside, span=1.0))
        assert np.all(np.isfinite(weights)) and weights.sum() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            EnsembleSpec(sigma=outside, span=1.0)

    def test_build_ensemble_weights(self):
        spec = EnsembleSpec(sigma=2 * PI * 1e6, n_atoms=21, span=3.0)
        deltas, weights = _grid(spec)
        assert len(deltas) == len(weights) == 21
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(deltas, -deltas[::-1], atol=1e-9)
        assert deltas[0] == pytest.approx(-3.0 * spec.sigma)
        assert deltas[10] == 0.0
        # Gaussian profile relative to the line center
        ratio = weights / weights[10]
        np.testing.assert_allclose(
            ratio, np.exp(-(deltas**2) / (2 * spec.sigma**2)), rtol=1e-12
        )


class TestTimeGrid:
    def test_exact_multiple(self):
        g = time_grid(1e-5, 1e-6)
        assert g.size == 11
        assert g[0] == 0.0
        assert g[-1] == pytest.approx(1e-5, rel=1e-15)
        np.testing.assert_allclose(np.diff(g), 1e-6, rtol=1e-12)

    def test_rounds_to_nearest_step(self):
        g = time_grid(1.04e-5, 1e-6)
        assert g.size == 11

    @settings(max_examples=200, deadline=None)
    @given(
        t_end=st.floats(min_value=0.0, max_value=1e-3),
        dt=st.floats(min_value=1e-9, max_value=1e-4),
    )
    def test_whole_steps_end_within_half_a_step(self, t_end, dt):
        assume(t_end / dt <= 1e5)
        g = time_grid(t_end, dt)
        n = max(1, round(t_end / dt))
        assert g.size == n + 1
        assert g[0] == 0.0
        np.testing.assert_allclose(np.diff(g), dt, rtol=1e-9)
        if t_end >= 0.5 * dt:
            assert abs(g[-1] - t_end) <= 0.5 * dt * (1 + 1e-9)
        else:
            assert g[-1] == dt

    def test_validation(self):
        with pytest.raises(ValueError):
            time_grid(1.0, 0.0)
        with pytest.raises(ValueError):
            time_grid(-1.0, 0.1)


class TestPhaseSum:
    """_phase_sum against the dense sum exp(1j * outer(tau, f)) @ c."""

    @staticmethod
    def check(tau, t_max, rng, n_freqs, columns):
        # |t f| <= 1e3 rad over the absolute times up to t_max: grid rounding then
        # moves a shared table's phases by at most ~4e-13 rad, and the dense
        # oracle's own phases round to ~1e-13 rad
        f = rng.uniform(-1.0, 1.0, n_freqs) * 1e3 / t_max
        shape = (n_freqs, columns)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        dense = np.exp(1j * np.outer(tau, f)) @ c
        got = _phase_sum(tau, f, c)
        assert got.shape == dense.shape
        scale = np.abs(c).sum(axis=0)  # the largest |S_k| any phases can give
        assert np.all(np.abs(got - dense).max(axis=0) <= 1e-12 * scale)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=3000),
        dt=st.floats(min_value=1e-10, max_value=1e-6),
        first=st.integers(min_value=0, max_value=3000),
        lag=st.floats(min_value=0.0, max_value=1.0),
        n_freqs=st.integers(min_value=1, max_value=60),
        columns=st.sampled_from([1, 9]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_time_grid_stretches_match_dense_sum(
        self, n, dt, first, lag, n_freqs, columns, seed
    ):
        # a stretch times[first:] measured from an instant up to one step earlier,
        # as the trace does after a pulse
        times = time_grid((first + n) * dt, dt)[first:]
        tau = times - max(times[0] - lag * dt, 0.0)
        self.check(tau, times[-1], np.random.default_rng(seed), n_freqs, columns)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=3000),
        n_freqs=st.integers(min_value=1, max_value=60),
        columns=st.sampled_from([1, 9]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_non_uniform_times_match_dense_sum(self, n, n_freqs, columns, seed):
        # times off a uniform ladder take the dense sum, one block at a time
        rng = np.random.default_rng(seed)
        tau = np.cumsum(rng.exponential(1e-8, n))
        self.check(tau, tau[-1], rng, n_freqs, columns)

    @staticmethod
    def dense_blocks(tau, f, c):
        # exp(i tau f) c one block of ceil(sqrt(n)) samples at a time, the
        # same operations as _phase_sum's off-ladder path
        size = math.isqrt(tau.size - 1) + 1
        blocks = [tau[i : i + size] for i in range(0, tau.size, size)]
        return np.concatenate([np.exp(1j * np.multiply.outer(b, f)) @ c for b in blocks])

    @staticmethod
    def moved_ladder(n, lead, pick, n_freqs, columns, seed, by):
        """A ladder, the same with one inner sample moved by `by` gaps, f and c."""
        ladder = (lead + np.arange(n)) * 1e-8
        rng = np.random.default_rng(seed)
        f = rng.uniform(-1.0, 1.0, n_freqs) * 1e3 / ladder[-1]
        shape = (n_freqs, columns)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tau = ladder.copy()
        tau[1 + int(pick * (n - 3))] += by * _TABLE_GAP_RAD / np.abs(f).max()
        return ladder, tau, f, c

    ladder_cases = given(
        n=st.integers(min_value=3, max_value=3000),
        lead=st.floats(min_value=0.0, max_value=3000.0),
        pick=st.floats(min_value=0.0, max_value=1.0),
        n_freqs=st.integers(min_value=1, max_value=60),
        columns=st.sampled_from([1, 9]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )

    @settings(max_examples=30, deadline=None)
    @ladder_cases
    def test_sample_past_the_gap_takes_the_dense_sum(
        self, n, lead, pick, n_freqs, columns, seed
    ):
        # the end points fix the ladder, so an inner sample 1.1 gaps off it
        # leaves the ladder tables for the dense blocked sum
        _, tau, f, c = self.moved_ladder(n, lead, pick, n_freqs, columns, seed, 1.1)
        assert np.array_equal(_phase_sum(tau, f, c), self.dense_blocks(tau, f, c))

    @settings(max_examples=30, deadline=None)
    @ladder_cases
    def test_sample_inside_the_gap_takes_the_ladder(
        self, n, lead, pick, n_freqs, columns, seed
    ):
        # 0.9 gaps off the ladder, the sum is the unmoved ladder's
        ladder, tau, f, c = self.moved_ladder(n, lead, pick, n_freqs, columns, seed, 0.9)
        assert np.array_equal(_phase_sum(tau, f, c), _phase_sum(ladder, f, c))

    @pytest.mark.parametrize("n", [1, 2, 3, 700, 3000])
    @pytest.mark.parametrize("n_freqs", [1, 7])
    def test_zero_frequencies_match_dense_sum(self, n, n_freqs):
        # every phase is 0, whatever tau: S_k = sum_m c[m]
        rng = np.random.default_rng(n)
        tau = np.cumsum(rng.exponential(1e-8, n))
        f = np.zeros(n_freqs)
        c = rng.standard_normal((n_freqs, 9)) + 1j * rng.standard_normal((n_freqs, 9))
        got = _phase_sum(tau, f, c)
        dense = np.exp(1j * np.outer(tau, f)) @ c
        assert got.shape == dense.shape == (n, 9)
        assert np.all(np.abs(got - dense).max(axis=0) <= 1e-12 * np.abs(c).sum(axis=0))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).nmant < 63, reason="the oracle needs extended long double"
    )
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20000),
        n_freqs=st.integers(min_value=1, max_value=3000),
        columns=st.sampled_from([1, 9]),
        phase=st.floats(min_value=0.0, max_value=6e3),
        h=st.floats(min_value=1e-10, max_value=1e-6),
        lead=st.floats(min_value=0.0, max_value=3000.0),
        descending=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(9001, 3000, 1, 6e3, 5e-9, 0.0, False, 2)
    @example(20000, 1, 9, 1e5, 1e-8, 0.0, False, 0)
    @example(20000, 2, 1, 1e5, 1e-8, 1.0, True, 1)
    @example(5000, 17, 9, 1e5, 3e-9, 100.0, True, 4)
    def test_chirp_sum_matches_dense_ladder_sum(
        self, n, n_freqs, columns, phase, h, lead, descending, seed
    ):
        # the exact sum over the ladders (t0 + k h)(f0 + m d), in long double at
        # 64 rows, so that only the chirp-z's own errors show; the examples at
        # 1e5 rad (a millisecond window) hold that they do not grow with |tau f|
        t0 = lead * h
        f_max = phase / (t0 + (n - 1) * h) if n > 1 or t0 > 0 else 0.0
        sign = -1.0 if descending else 1.0
        f0 = -sign * f_max if n_freqs > 1 else sign * f_max
        d = sign * 2.0 * f_max / max(n_freqs - 1, 1) if n_freqs > 1 else 0.0
        rng = np.random.default_rng(seed)
        shape = (n_freqs, columns)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        got = _chirp_sum(t0, h, f0, d, c, n)
        assert got.shape == (n, columns)
        rows = np.unique(np.r_[0, n - 1, rng.integers(0, n, 62)])
        ld = np.longdouble
        phases = np.multiply.outer(
            ld(t0) + ld(h) * rows.astype(ld), ld(f0) + ld(d) * np.arange(n_freqs).astype(ld)
        )
        want = (np.cos(phases) + 1j * np.sin(phases)) @ c.astype(np.clongdouble)
        scale = np.abs(c).sum(axis=0)
        assert np.all(np.abs(got[rows] - want).max(axis=0) <= 1e-12 * scale)

    @staticmethod
    def moved_comb(n, n_freqs, pick, columns, seed, by):
        """Ladder times, a comb, the comb with one inner frequency moved by `by`
        gaps, and coefficients."""
        tau = (3.0 + np.arange(n)) * 1e-8
        f = np.linspace(-1.0, 1.0, n_freqs) * 1e3 / tau[-1]
        rng = np.random.default_rng(seed)
        shape = (n_freqs, columns)
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        moved = f.copy()
        moved[1 + int(pick * (n_freqs - 3))] += by * _TABLE_GAP_RAD / tau[-1]
        return tau, f, moved, c

    comb_cases = given(
        n=st.integers(min_value=500, max_value=5000),
        n_freqs=st.integers(min_value=1001, max_value=2501),
        pick=st.floats(min_value=0.0, max_value=1.0),
        columns=st.sampled_from([1, 9]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )

    @settings(max_examples=20, deadline=None)
    @comb_cases
    def test_frequency_inside_the_gap_takes_the_chirp_z(
        self, n, n_freqs, pick, columns, seed
    ):
        # 0.9 gaps off the comb's ladder, the sum is the unmoved ladder's chirp-z
        tau, f, moved, c = self.moved_comb(n, n_freqs, pick, columns, seed, 0.9)
        assert _chirp_pays(n, n_freqs)
        h, d = _ladder(tau)[0], _ladder(f)[0]
        want = _chirp_sum(tau[0], h, f[0], d, c, n)
        assert np.array_equal(_phase_sum(tau, moved, c), want)
        assert np.array_equal(_phase_sum(tau, f, c), want)

    @settings(max_examples=20, deadline=None)
    @comb_cases
    def test_frequency_past_the_gap_takes_the_table(self, n, n_freqs, pick, columns, seed):
        # 1.1 gaps off the comb's ladder, the sum is the ladder table's
        tau, _, moved, c = self.moved_comb(n, n_freqs, pick, columns, seed, 1.1)
        got = _phase_sum(tau, moved, c)
        with mock.patch.object(ensemble, "_chirp_pays", return_value=False):
            assert np.array_equal(got, _phase_sum(tau, moved, c))

    @pytest.mark.parametrize(
        "beta, j",
        [
            # alpha / 4 pi of echo-wide (0.01 us steps, 2001 atoms) at index
            # max(P, F) - 1 of a long stretch, of 200001 atoms, and a descending comb
            ((0.01e-6, 0.5 * TWO_PI_MHZ * 10 / 2000), 2095),
            ((0.005e-6, 0.5 * TWO_PI_MHZ * 10 / 200000), 200000),
            ((1e-8, -0.5 * 6e3 / 5e-5 / 2999), 5192),
        ],
    )
    def test_chirp_turns_at_the_largest_index_are_exact(self, beta, j):
        x = _cycles(*beta)
        exact = Fraction(beta[0]) * Fraction(beta[1]) / TWO_PI_EXACT
        assert abs(Fraction(x[0]) + Fraction(x[1]) - exact) <= abs(exact) * Fraction(1, 10**30)
        want = exact * j * j
        want -= round(want)
        got = _turns(x, np.arange(j + 1, dtype=float) ** 2)
        assert abs(Fraction(float(got[-1])) - want) <= Fraction(1, 10**15)
        assert np.all(np.abs(got) <= 0.5)

    def test_echo_wide_comb_takes_the_chirp_z_and_finite_comb_the_table(self):
        # the chirp-z wins for 2001 atoms over stretches of thousands of
        # samples; 61 atoms over at most 300 samples stay with the table
        assert all(_chirp_pays(n, 2001) for n in range(200, 18002, 100))
        assert not any(_chirp_pays(n, 61) for n in range(1, 301))
        seq = hard_seq(
            (Channel.OPTICAL12, 0.3 * PI, 1 * US),
            (Channel.OPTICAL12, PI, 20 * US),
            (Channel.CONTROL23, PI, 25 * US),
            (Channel.CONTROL23, PI, 45 * US),
            (Channel.OPTICAL12, PI, 95 * US),
            t_end=180 * US,
        )
        times = time_grid(180 * US, 0.01 * US)
        with mock.patch.object(ensemble, "_chirp_sum", wraps=_chirp_sum) as spy:
            simulate_ensemble(seq, EnsembleSpec(n_atoms=2001), times)
        assert spy.call_count == 5  # every free stretch after the first optical pulse
        finite = PulseSequence(
            pulses=(
                Pulse(Channel.OPTICAL12, 0.3 * PI, 0.0, duration=0.2 * US),
                Pulse(Channel.OPTICAL12, PI, 2.0 * US, duration=0.2 * US),
            ),
            t_end=9 * US,
        )
        with mock.patch.object(ensemble, "_chirp_sum", wraps=_chirp_sum) as spy:
            simulate_ensemble(
                finite,
                EnsembleSpec(sigma=TWO_PI_MHZ * 0.6, n_atoms=61, span=4.0),
                time_grid(9 * US, 0.01 * US),
                engine="ode",
            )
        assert spy.call_count == 0

    def test_wide_comb_trace_memory_is_bounded(self):
        # 2001 atoms x 18001 samples: a dense phase matrix alone would be 576 MB
        seq = hard_seq(
            (Channel.OPTICAL12, 0.3 * PI, 1 * US),
            (Channel.OPTICAL12, PI, 20 * US),
            (Channel.CONTROL23, PI, 25 * US),
            (Channel.CONTROL23, PI, 45 * US),
            (Channel.OPTICAL12, PI, 95 * US),
            t_end=180 * US,
        )
        spec = EnsembleSpec(n_atoms=2001)
        times = time_grid(180 * US, 0.01 * US)
        tracemalloc.start()
        try:
            trace = simulate_ensemble(seq, spec, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6
        # the controlled second echo is emissive, at its exact height sin(0.3 pi) / 2
        i = int(np.argmin(np.abs(times - predict_echo_times(seq)[1])))
        want = 0.5j * math.sin(0.3 * PI)
        assert trace.polarization[i] == pytest.approx(want, abs=1e-9)


class TestTwoPulseEcho:
    SPEC = EnsembleSpec()

    def test_fid_collapses_after_data_pulse(self):
        seq = hard_seq((Channel.OPTICAL12, 0.1 * PI, 0.0), t_end=0.4 * US)
        times = time_grid(0.4 * US, 0.002 * US)
        pol = simulate_ensemble(seq, self.SPEC, times).polarization
        mag = np.abs(pol)
        assert mag[0] == pytest.approx(SIN_WEAK_HALF, abs=1e-12)
        assert np.all(np.diff(mag) < 0)
        assert mag[-1] < 0.05 * mag[0]

    def test_echo_revives_at_twice_the_delay(self):
        tau = 10 * US
        seq = two_pulse_seq(tau=tau)
        times = time_grid(25 * US, 0.005 * US)
        trace = simulate_ensemble(seq, self.SPEC, times)
        report = detect_echoes(times, trace.polarization, seq)
        assert [e.label for e in report.events] == ["E1"]
        echo = report.events[0]
        assert echo.time == pytest.approx(2 * tau, abs=0.005 * US)
        assert echo.im_sign == 1

    def test_echo_amplitude_and_phase_exact_at_refocus(self):
        # every comb member realigns exactly at 2 tau
        tau = 10 * US
        pol = simulate_ensemble(
            two_pulse_seq(tau=tau), self.SPEC, np.array([2 * tau])
        ).polarization
        assert pol[0].real == pytest.approx(0.0, abs=1e-12)
        assert pol[0].imag == pytest.approx(SIN_WEAK_HALF, abs=1e-9)

    def test_discrete_comb_revival_exists(self):
        # a uniform comb revives the free-decay signal at 1/(grid spacing);
        # with the default spec that lands at 20 us, so windows that must
        # stay revival-free have to end well before it
        seq = hard_seq((Channel.OPTICAL12, 0.1 * PI, 0.0), t_end=21 * US)
        spec = self.SPEC
        spacing = 2 * spec.span * spec.sigma / (spec.n_atoms - 1)
        t_rev = 2 * PI / spacing
        assert t_rev == pytest.approx(20 * US, rel=1e-12)
        pol = simulate_ensemble(seq, spec, np.array([t_rev])).polarization
        assert abs(pol[0]) > 0.9 * SIN_WEAK_HALF


class TestProtocolEchoes:
    SPEC = EnsembleSpec()
    TIMES = time_grid(45 * US, 0.005 * US)

    def test_double_rephasing_echo_times_and_signs(self):
        seq = dr_seq()
        assert predict_echo_times(seq) == pytest.approx([20 * US, 40 * US])
        trace = simulate_ensemble(seq, self.SPEC, self.TIMES)
        report = detect_echoes(self.TIMES, trace.polarization, seq)
        assert [e.label for e in report.events] == ["E1", "E2"]
        e1, e2 = report.events
        assert e1.time == pytest.approx(20 * US, abs=0.005 * US)
        assert e2.time == pytest.approx(40 * US, abs=0.005 * US)
        assert e1.im_sign == 1
        assert e2.im_sign == -1
        assert e1.amplitude == pytest.approx(SIN_WEAK_HALF, abs=1e-9)
        assert e2.amplitude == pytest.approx(SIN_WEAK_HALF, abs=1e-9)

    def test_controlled_double_rephasing_flips_both_echoes(self):
        seq = cdr_seq()
        # shelving delays the first echo by the control gap and pulls the
        # second one forward by the same amount
        assert predict_echo_times(seq) == pytest.approx([24 * US, 36 * US])
        trace = simulate_ensemble(seq, self.SPEC, self.TIMES)
        report = detect_echoes(self.TIMES, trace.polarization, seq)
        assert [e.label for e in report.events] == ["E1", "E2"]
        e1, e2 = report.events
        assert e1.time == pytest.approx(24 * US, abs=0.005 * US)
        assert e2.time == pytest.approx(36 * US, abs=0.005 * US)
        assert e1.im_sign == -1
        assert e2.im_sign == 1
        assert e1.amplitude == pytest.approx(SIN_WEAK_HALF, abs=1e-9)
        assert e2.amplitude == pytest.approx(SIN_WEAK_HALF, abs=1e-9)

    def test_population_plateaus(self):
        trace = simulate_ensemble(cdr_seq(), self.SPEC, self.TIMES)
        t = self.TIMES
        windows = {
            (0.0, 10 * US): (1 - POP_WEAK, POP_WEAK, 0.0),
            (10 * US, 12 * US): (POP_WEAK, POP_INVERTED, 0.0),
            (12 * US, 16 * US): (POP_WEAK, 0.0, POP_INVERTED),
            (16 * US, 30 * US): (POP_WEAK, POP_INVERTED, 0.0),
            (30 * US, 45.001 * US): (POP_INVERTED, POP_WEAK, 0.0),
        }
        for (lo, hi), (g, e, s) in windows.items():
            mask = (t >= lo) & (t < hi)
            assert mask.any()
            np.testing.assert_allclose(trace.pop_ground[mask], g, atol=1e-9)
            np.testing.assert_allclose(trace.pop_excited[mask], e, atol=1e-9)
            np.testing.assert_allclose(trace.pop_spin[mask], s, atol=1e-9)

    def test_excited_dominates_at_first_echo_only(self):
        trace = simulate_ensemble(cdr_seq(), self.SPEC, self.TIMES)
        g1, e1, _ = trace.population_at(24 * US)
        g2, e2, _ = trace.population_at(36 * US)
        assert e1 > g1
        assert e2 < g2

    def test_comb_is_weighted_sum_of_single_atoms(self):
        # the comb trace and run_sequence_hard walk the same propagators; every
        # pulse instant is on this grid, so the single-atom runs emit its times
        spec = EnsembleSpec(n_atoms=7)
        times = time_grid(45 * US, 0.5 * US)
        trace = simulate_ensemble(cdr_seq(), spec, times)
        pol = np.zeros(times.size, dtype=complex)
        pops = np.zeros((times.size, 3))
        for delta, weight in zip(*_grid(spec)):
            out = run_sequence_hard(
                ground_state(), cdr_seq(), AtomParams(delta=float(delta)), times
            )
            assert [t for t, _ in out] == times.tolist()
            pol += weight * np.array([rho.elements[0, 1] for _, rho in out])
            pops += weight * np.array([np.diag(rho.elements).real for _, rho in out])
        assert np.max(np.abs(trace.polarization - pol)) <= 1e-12
        for k, name in enumerate(("pop_ground", "pop_excited", "pop_spin")):
            assert np.max(np.abs(getattr(trace, name) - pops[:, k])) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        pulses=st.lists(
            st.tuples(
                st.sampled_from(list(Channel)),
                st.floats(min_value=-3.0, max_value=3.0),  # area / pi
                st.integers(min_value=3, max_value=40),  # steps since the last pulse
            ),
            min_size=1,
            max_size=5,
        ),
        lead=st.integers(min_value=0, max_value=20),
        tail=st.integers(min_value=3, max_value=40),
        n_atoms=st.sampled_from([3, 9, 31]),
    )
    def test_random_hard_sequences_are_weighted_sums_of_single_atoms(
        self, pulses, lead, tail, n_atoms
    ):
        # instants on a 0.1 us grid, every stretch at least 3 samples long, so
        # the phase sums take their doubled tables
        spec = EnsembleSpec(n_atoms=n_atoms)
        steps = np.cumsum([lead] + [gap for _, _, gap in pulses])[1:]
        times = time_grid((steps[-1] + tail) * 0.1 * US, 0.1 * US)
        seq = PulseSequence(
            pulses=tuple(
                Pulse(ch, area * PI, float(times[k]))
                for (ch, area, _), k in zip(pulses, steps)
            ),
            t_end=float(times[-1]),
        )
        trace = simulate_ensemble(seq, spec, times)
        pol = np.zeros(times.size, dtype=complex)
        pops = np.zeros((times.size, 3))
        for delta, weight in zip(*_grid(spec)):
            out = run_sequence_hard(ground_state(), seq, AtomParams(delta=float(delta)), times)
            assert [t for t, _ in out] == times.tolist()
            assert all(validate(rho).ok for _, rho in out)
            pol += weight * np.array([rho.elements[0, 1] for _, rho in out])
            pops += weight * np.array([np.diag(rho.elements).real for _, rho in out])
        assert np.max(np.abs(trace.polarization - pol)) <= 1e-12
        got = np.column_stack([trace.pop_ground, trace.pop_excited, trace.pop_spin])
        assert np.max(np.abs(got - pops)) <= 1e-12
        assert np.max(np.abs(got.sum(axis=1) - 1.0)) <= 1e-12
        assert got.min() >= -1e-12 and got.max() <= 1.0 + 1e-12

    def test_real_part_stays_zero(self):
        pol = simulate_ensemble(cdr_seq(), self.SPEC, self.TIMES).polarization
        assert np.max(np.abs(pol.real)) <= 1e-12


class TestPredictEchoTimes:
    def test_no_pulses(self):
        assert predict_echo_times(PulseSequence(pulses=(), t_end=1.0)) == []

    def test_no_optical_pulses(self):
        seq = hard_seq((Channel.CONTROL23, PI, 1 * US), t_end=5 * US)
        assert predict_echo_times(seq) == []

    def test_single_optical_pulse_never_echoes(self):
        seq = hard_seq((Channel.OPTICAL12, 0.3 * PI, 0.0), t_end=5 * US)
        assert predict_echo_times(seq) == []

    def test_even_pi_rephasing_does_not_flip(self):
        seq = hard_seq(
            (Channel.OPTICAL12, 0.1 * PI, 0.0),
            (Channel.OPTICAL12, 2 * PI, 5 * US),
            t_end=20 * US,
        )
        assert predict_echo_times(seq) == []

    def test_fractional_area_does_not_flip(self):
        seq = hard_seq(
            (Channel.OPTICAL12, 0.1 * PI, 0.0),
            (Channel.OPTICAL12, 0.5 * PI, 5 * US),
            t_end=20 * US,
        )
        assert predict_echo_times(seq) == []

    def test_three_pi_counts_as_odd(self):
        seq = hard_seq(
            (Channel.OPTICAL12, 0.1 * PI, 0.0),
            (Channel.OPTICAL12, 3 * PI, 5 * US),
            t_end=20 * US,
        )
        assert predict_echo_times(seq) == pytest.approx([10 * US])

    def test_echo_beyond_window_dropped(self):
        seq = two_pulse_seq(tau=10 * US, t_end=15 * US)
        assert predict_echo_times(seq) == []

    def test_shelving_shifts_both_echoes(self):
        assert predict_echo_times(cdr_seq()) == pytest.approx([24 * US, 36 * US])
        assert predict_echo_times(dr_seq()) == pytest.approx([20 * US, 40 * US])

    def test_finite_durations_count_from_centers(self):
        width = 0.2 * US
        seq = PulseSequence(
            pulses=(
                Pulse(Channel.OPTICAL12, 0.1 * PI, 0.0, duration=width),
                Pulse(Channel.OPTICAL12, PI, 10 * US - width / 2, duration=width),
            ),
            t_end=25 * US,
        )
        # centers sit at width/2 and 10us, so the echo lands at 20us - width/2
        want = 2 * (10 * US) - width / 2
        assert predict_echo_times(seq) == pytest.approx([want], abs=1e-12)


class TestDetectEchoes:
    def test_labels_synthetic_peaks(self):
        seq = two_pulse_seq(tau=4 * US, t_end=10 * US)
        times = time_grid(10 * US, 0.01 * US)
        bump = lambda c, w: np.exp(-((times - c) ** 2) / (2 * w**2))
        pol = (-0.3j * bump(2.5 * US, 0.05 * US)) + (0.8j * bump(8 * US, 0.05 * US))
        report = detect_echoes(times, pol, seq)
        by_label = {e.label: e for e in report.events}
        assert set(by_label) == {"E1", "other"}
        assert by_label["E1"].time == pytest.approx(8 * US, abs=0.01 * US)
        assert by_label["E1"].im_sign == 1
        assert by_label["other"].time == pytest.approx(2.5 * US, abs=0.01 * US)
        assert by_label["other"].im_sign == -1

    def test_threshold_suppresses_small_peaks(self):
        seq = two_pulse_seq(tau=4 * US, t_end=10 * US)
        times = time_grid(10 * US, 0.01 * US)
        bump = lambda c, w: np.exp(-((times - c) ** 2) / (2 * w**2))
        pol = (0.05j * bump(2.5 * US, 0.05 * US)) + (1.0j * bump(8 * US, 0.05 * US))
        report = detect_echoes(times, pol, seq, threshold_fraction=0.2)
        assert [e.label for e in report.events] == ["E1"]

    def test_peaks_inside_pulse_windows_ignored(self):
        seq = two_pulse_seq(tau=4 * US, t_end=10 * US)
        times = time_grid(10 * US, 0.01 * US)
        bump = np.exp(-((times - 4 * US) ** 2) / (2 * (0.02 * US) ** 2))
        report = detect_echoes(times, 1.0j * bump, seq)
        assert all(abs(e.time - 4 * US) > 0.01 * US for e in report.events)

    def test_validation(self):
        seq = two_pulse_seq()
        times = time_grid(10 * US, 0.01 * US)
        with pytest.raises(ValueError):
            detect_echoes(times, np.zeros(3, complex), seq)
        with pytest.raises(ValueError):
            detect_echoes(times, np.zeros_like(times, dtype=complex), seq, 0.0)
        with pytest.raises(ValueError):
            detect_echoes(times, np.zeros_like(times, dtype=complex), seq, 1.5)

    def test_finite_pulse_echo_off_ledger_is_still_labeled(self):
        # the centre-based ledger puts E2 at 8.06 us; with 0.2 us pulses the
        # peak lands at 8.13 us, seven steps away, and must still read E2
        width = 0.2 * US
        seq = PulseSequence(
            pulses=tuple(
                Pulse(ch, area, t * US, duration=width)
                for ch, area, t in (
                    (Channel.OPTICAL12, 0.1 * PI, 0.0),
                    (Channel.OPTICAL12, PI, 1.8),
                    (Channel.CONTROL23, PI, 2.3),
                    (Channel.CONTROL23, PI, 3.5),
                    (Channel.OPTICAL12, PI, 6.38),
                )
            ),
            t_end=9 * US,
        )
        spec = EnsembleSpec(sigma=2 * PI * 0.6e6, n_atoms=61, span=4.0)
        times = time_grid(9 * US, 0.01 * US)
        pol = simulate_ensemble(seq, spec, times, engine="ode").polarization
        assert predict_echo_times(seq) == pytest.approx([4.9 * US, 8.06 * US])
        report = detect_echoes(times, pol, seq)
        (e1,) = report.labeled("E1")
        (e2,) = report.labeled("E2")
        assert e1.time == pytest.approx(4.9 * US, abs=0.005 * US)
        assert e2.time == pytest.approx(8.13 * US, abs=0.005 * US)
        assert (e1.im_sign, e2.im_sign) == (-1, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        levels=st.integers(min_value=2, max_value=6),
        width=st.integers(min_value=0, max_value=40),
        threshold=st.one_of(
            st.floats(min_value=0.05, max_value=1.0),
            st.sampled_from([0.2, 0.25, 0.5, 1.0]),
        ),
    )
    # three predicted echoes, with peaks labelled E1, E2 and "other" beside the third
    @example(seed=5, levels=3, width=10, threshold=0.5)
    def test_matches_loop_reference(self, seed, levels, width, threshold):
        rng = np.random.default_rng(seed)
        dt = 0.01 * US
        times = time_grid(10 * US, dt)
        # few exact magnitude levels make plateaus and peaks right at the
        # threshold, so the > left / >= right and >= threshold rules matter
        mag = rng.integers(0, levels, times.size) / (levels - 1)
        pol = mag * rng.choice([1, -1, 1j, -1j], times.size)
        pulses, start = [], 0.0
        # mostly odd-pi optical pulses, so that some runs predict three or more echoes
        for k in range(int(rng.integers(1, 7))):
            optical = k == 0 or rng.random() < 0.75
            channel = Channel.OPTICAL12 if optical else Channel.CONTROL23
            area = 0.1 * PI if k == 0 else float(rng.choice([PI, PI, 2 * PI, 3 * PI]))
            pulses.append(Pulse(channel, area, start, duration=width * dt))
            start = pulses[-1].t_end + int(rng.integers(1, 200)) * dt
        seq = PulseSequence(pulses=tuple(pulses), t_end=max(10 * US, pulses[-1].t_end))
        report = detect_echoes(times, pol, seq, threshold)
        assert report.events == detect_echoes_loop(times, pol, seq, threshold)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_detected_echoes_follow_the_ledger(self, data):
        # dr: data, r1, r2; cdr adds a control pair after r1, before or after
        # E1. All instants and both echoes sit on the grid, at least 3 steps
        # apart, and the window stays 1 us short of the comb revival.
        dt = 0.05 * US
        spec = EnsembleSpec(n_atoms=401)
        horizon = 2 * PI / np.diff(_grid(spec)[0])[0]  # 40 us
        draw = lambda lo, hi: data.draw(st.integers(min_value=lo, max_value=hi))
        odd = st.sampled_from([-3, -1, 1, 3])
        controlled = data.draw(st.booleans())
        t0, tau = draw(0, 40), draw(6, 120)
        r1 = t0 + tau
        pulses = [(Channel.OPTICAL12, data.draw(st.floats(0.05, 0.95)), t0)]
        pulses.append((Channel.OPTICAL12, data.draw(odd), r1))
        e1 = r1 + tau
        if controlled:
            # the pair returns the coherence rotated by c1 + c2; only a total
            # of 2 pi mod 4 pi flips its sign, as a pi-pi pair does
            c1 = data.draw(odd)
            c2 = data.draw(st.sampled_from([c for c in (-3, -1, 1, 3) if (c - c1) % 4 == 0]))
            shelve = draw(3, 80)
            if data.draw(st.booleans()):  # shelved before E1, which it delays
                start = r1 + draw(3, tau - 3)
                e1 += shelve
                r2 = e1 + draw(3, 80)
                lag = r2 - e1
            else:  # shelved between E1 and r2
                start = e1 + draw(3, 80)
                r2 = start + shelve + draw(3, 80)
                lag = r2 - e1 - shelve
            pulses += [(Channel.CONTROL23, c1, start), (Channel.CONTROL23, c2, start + shelve)]
        else:
            r2 = e1 + draw(3, 80)
            lag = r2 - e1
        pulses.append((Channel.OPTICAL12, data.draw(odd), r2))
        e2 = r2 + lag
        t_end = e2 + draw(3, 40)
        assert (t_end - t0) * dt <= horizon - 1 * US
        times = time_grid(t_end * dt, dt)
        seq = PulseSequence(
            pulses=tuple(Pulse(ch, a * PI, float(times[k])) for ch, a, k in pulses),
            t_end=float(times[-1]),
        )
        predicted = predict_echo_times(seq)
        assert predicted == pytest.approx([times[e1], times[e2]], abs=1e-3 * dt)

        pol = simulate_ensemble(seq, spec, times).polarization
        report = detect_echoes(times, pol, seq)
        # exact odd-pi pulses leave one coherence pathway: no other peaks
        assert [e.label for e in report.events] == ["E1", "E2"]
        got1, got2 = report.events
        assert abs(got1.time - predicted[0]) <= dt * (1 + 1e-9)
        assert abs(got2.time - predicted[1]) <= dt * (1 + 1e-9)
        assert got2.im_sign == (1 if controlled else -1)

    def test_flat_signal_reports_nothing(self):
        seq = two_pulse_seq(tau=4 * US, t_end=10 * US)
        times = time_grid(10 * US, 0.01 * US)
        report = detect_echoes(times, np.zeros_like(times, dtype=complex), seq)
        assert report.events == ()

    def test_every_report_carries_the_prediction(self):
        seq = two_pulse_seq(tau=4 * US, t_end=10 * US)
        want = tuple(predict_echo_times(seq))
        assert want == pytest.approx((8 * US,))
        times = time_grid(10 * US, 0.01 * US)
        inside = np.array([3.99, 4.0, 4.01]) * US  # all within a step of the r pulse
        bump = 1j * np.exp(-((times - 8 * US) ** 2) / (2 * (0.05 * US) ** 2))
        cases = [
            (times[:2], bump[:2]),  # too few samples
            (inside, np.ones(3, dtype=complex)),  # every sample inside a pulse window
            (times, np.zeros_like(bump)),  # no signal
            (times, bump),  # one echo
        ]
        for t, pol in cases:
            assert detect_echoes(t, pol, seq).predicted == want


def rk4_ensemble(seq, spec, dt, stride):
    """Weighted sum of per-atom RK4 trajectories: sample times and P(t)."""
    times = pol = None
    for delta, weight in zip(*_grid(spec)):
        atom = AtomParams(delta=float(delta))
        traj = integrate_sequence(ground_state(), seq, atom, dt, sample_stride=stride)
        if times is None:
            times = np.array([t for t, _ in traj])
            pol = np.zeros(times.size, dtype=complex)
        pol += weight * np.array([rho.elements[0, 1] for _, rho in traj])
    return times, pol


def eigh_ensemble(seq, spec, times):
    """P(t) and mean populations as the weighted sum of per-atom propagators,
    each square pulse's from np.linalg.eigh of its 3x3 Hamiltonian, one atom
    at a time: the oracle for the comb's closed-form rotations."""
    levels = {Channel.OPTICAL12: (0, 1), Channel.CONTROL23: (1, 2)}
    deltas, weights = _grid(spec)
    pol = np.zeros(times.size, dtype=complex)
    pops = np.zeros((times.size, 3))
    for delta, weight in zip(deltas, weights):
        free = np.diag([0.0, delta, 0.0])
        pieces, now = [], 0.0
        for p in seq.pulses:
            h = free.copy()
            a, b = levels[p.channel]
            h[a, b] = h[b, a] = -0.5 * p.rabi_frequency
            pieces += [(now, p.t_start, free), (p.t_start, p.t_end, h)]
            now = p.t_end
        pieces.append((now, np.inf, free))
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        for start, end, h in pieces:
            w, v = np.linalg.eigh(h)
            inside = (times >= start) & (times < end)
            tau = np.append(times[inside] - start, end - start if end < np.inf else 0.0)
            u = (v * np.exp(-1j * np.multiply.outer(tau, w))[:, None, :]) @ v.T
            states = u @ rho @ u.conj().swapaxes(1, 2)
            pol[inside] += weight * states[:-1, 0, 1]
            pops[inside] += weight * np.diagonal(states[:-1], axis1=1, axis2=2).real
            rho = states[-1]
    return pol, pops


class TestOdeEngine:
    def test_resonant_comb_matches_hard_engine_exactly(self):
        # with zero detuning a square pulse is an exact rotation, so the two
        # engines must agree to integrator accuracy
        spec = EnsembleSpec(sigma=2 * PI * 1e6, n_atoms=5, span=0.0)
        width = 0.08 * US
        finite = PulseSequence(
            pulses=(
                Pulse(Channel.OPTICAL12, 0.3 * PI, 0.2 * US - width / 2, duration=width),
                Pulse(Channel.CONTROL23, 0.7 * PI, 0.5 * US - width / 2, duration=width),
            ),
            t_end=0.8 * US,
        )
        hard = hard_seq(
            (Channel.OPTICAL12, 0.3 * PI, 0.2 * US),
            (Channel.CONTROL23, 0.7 * PI, 0.5 * US),
            t_end=0.8 * US,
        )
        times = np.array([0.0, 0.1, 0.35, 0.45, 0.7, 0.8]) * US
        a = simulate_ensemble(finite, spec, times, engine="ode")
        b = simulate_ensemble(hard, spec, times, engine="hard")
        np.testing.assert_allclose(a.polarization, b.polarization, atol=1e-8)
        for name in ("pop_ground", "pop_excited", "pop_spin"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name), atol=1e-8)

    def test_detuned_echo_structure_and_convergence(self):
        spec = EnsembleSpec(sigma=2 * PI * 3e6, n_atoms=41, span=2.0)
        width = 0.05 * US
        seq = PulseSequence(
            pulses=(
                Pulse(Channel.OPTICAL12, 0.5 * PI, 0.15 * US - width / 2, duration=width),
                Pulse(Channel.OPTICAL12, PI, 0.45 * US - width / 2, duration=width),
            ),
            t_end=1.0 * US,
        )
        times = time_grid(1.0 * US, 0.0025 * US)
        pol = simulate_ensemble(seq, spec, times, engine="ode").polarization
        report = detect_echoes(times, pol, seq)
        echoes = report.labeled("E1")
        assert len(echoes) == 1
        assert echoes[0].time == pytest.approx(0.75 * US, abs=0.01 * US)
        assert echoes[0].im_sign == 1

        # the RK4 oracle, atom by atom, on the same comb; a stride of 5 steps
        # lands it on the 2.5 ns sample grid
        t_rk4, p_rk4 = rk4_ensemble(seq, spec, dt=width / 100, stride=5)
        np.testing.assert_allclose(t_rk4, times, rtol=0, atol=1e-15)
        assert np.max(np.abs(pol - p_rk4)) <= 1e-6

    @settings(max_examples=8, deadline=None)
    @given(
        pulses=st.lists(
            st.tuples(
                st.sampled_from(list(Channel)),
                st.floats(min_value=0.1, max_value=1.5),  # area / pi
                st.floats(min_value=0.1, max_value=0.2),  # duration, us
                st.floats(min_value=0.0, max_value=0.1),  # gap before, us
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_random_square_pulses_match_rk4_oracle(self, pulses):
        spec = EnsembleSpec(sigma=2 * PI * 1e6, n_atoms=3, span=2.0)
        built = []
        for channel, area, width, gap in pulses:
            start = built[-1].t_end + gap * US if built else gap * US
            built.append(Pulse(channel, area * PI, start, duration=width * US))
        seq = PulseSequence(pulses=tuple(built), t_end=built[-1].t_end + 0.1 * US)
        dt = min(p.duration for p in built) / 100
        t_rk4, p_rk4 = rk4_ensemble(seq, spec, dt=dt, stride=10)
        trace = simulate_ensemble(seq, spec, t_rk4, engine="ode")
        assert np.max(np.abs(trace.polarization - p_rk4)) <= 1e-6
        total = trace.pop_ground + trace.pop_excited + trace.pop_spin
        assert np.max(np.abs(total - 1.0)) <= 1e-12

    @settings(max_examples=25, deadline=None)
    @given(
        pulses=st.lists(
            st.tuples(
                st.sampled_from(list(Channel)),
                st.floats(min_value=0.0, max_value=2.0, exclude_min=True, exclude_max=True),
                st.floats(min_value=0.05, max_value=0.3),  # duration, us
                st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.5)),  # gap, us
            ),
            min_size=1,
            max_size=4,
        )
    )
    def test_random_square_pulses_match_per_atom_eigh_propagators(self, pulses):
        spec = EnsembleSpec(sigma=2 * PI * 1e6, n_atoms=41, span=3.0)
        built = []
        for channel, area, width, gap in pulses:
            start = (built[-1].t_end if built else 0.0) + gap * US
            built.append(Pulse(channel, area * PI, start, duration=width * US))
        seq = PulseSequence(pulses=tuple(built), t_end=built[-1].t_end + 1 * US)
        times = time_grid(seq.t_end, 0.01 * US)
        trace = simulate_ensemble(seq, spec, times, engine="ode")
        pol, pops = eigh_ensemble(seq, spec, times)
        assert np.max(np.abs(trace.polarization - pol)) <= 1e-12
        got = np.column_stack([trace.pop_ground, trace.pop_excited, trace.pop_spin])
        assert np.max(np.abs(got - pops)) <= 1e-12

    def test_engine_argument_validation(self):
        spec = EnsembleSpec(n_atoms=5)
        times = time_grid(1 * US, 0.1 * US)
        hard = two_pulse_seq(tau=0.3 * US, t_end=1 * US)
        with pytest.raises(ValueError, match="engine"):
            simulate_ensemble(hard, spec, times, engine="magic")
        with pytest.raises(ValueError, match="durations"):
            simulate_ensemble(hard, spec, times, engine="ode")
        finite = PulseSequence(
            pulses=(Pulse(Channel.OPTICAL12, PI, 0.0, duration=0.1 * US),),
            t_end=1 * US,
        )
        with pytest.raises(ValueError, match="zero-duration"):
            simulate_ensemble(finite, spec, times, engine="hard")

    def test_times_validation(self):
        spec = EnsembleSpec(n_atoms=5)
        seq = two_pulse_seq(tau=0.3 * US, t_end=1 * US)
        with pytest.raises(ValueError):
            simulate_ensemble(seq, spec, np.array([]))
        with pytest.raises(ValueError):
            simulate_ensemble(seq, spec, np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            simulate_ensemble(seq, spec, np.array([-1.0, 0.0]))


class TestSizeBudget:
    """Library calls meet the same budget as sequence files, before any array
    of the comb exists."""

    @pytest.mark.parametrize(
        "n_atoms, duration, engine", [(2**20 + 1, 0.0, "hard"), (60001, 44.0 * US, "ode")]
    )
    def test_trace_past_the_budget_is_refused_before_allocating(
        self, n_atoms, duration, engine
    ):
        # 9001 samples: over 2 GiB for a million-atom comb, or for 60001 atoms
        # inside a square pulse that spans the window
        seq = PulseSequence(
            pulses=(Pulse(Channel.OPTICAL12, 0.5 * PI, 0.5 * US, duration=duration),),
            t_end=45 * US,
        )
        spec = EnsembleSpec(n_atoms=n_atoms)
        times = time_grid(45 * US, 0.005 * US)
        pulse_samples = int(np.sum((times >= 0.5 * US) & (times < 0.5 * US + duration)))
        assert trace_bytes(n_atoms, times.size, pulse_samples) > TRACE_BUDGET_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="GiB budget"):
                simulate_ensemble(seq, spec, times, engine=engine)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e6


class TestTraceContainer:
    def test_arrays_are_read_only(self):
        spec = EnsembleSpec(n_atoms=5)
        times = time_grid(1 * US, 0.1 * US)
        trace = simulate_ensemble(two_pulse_seq(tau=0.3 * US, t_end=1 * US), spec, times)
        with pytest.raises(ValueError):
            trace.polarization[0] = 0.0
        with pytest.raises(ValueError):
            trace.times[0] = -1.0

    def test_callers_arrays_stay_writable(self):
        spec = EnsembleSpec(n_atoms=5)
        seq = two_pulse_seq(tau=0.3 * US, t_end=1 * US)
        times = time_grid(1 * US, 0.1 * US)
        trace = simulate_ensemble(seq, spec, times)
        pol = np.array(trace.polarization)
        detect_echoes(times, pol, seq)
        assert times.flags.writeable
        assert pol.flags.writeable
        times[0] = -1.0
        assert trace.times[0] == 0.0

    def test_population_at_uses_nearest_sample(self):
        spec = EnsembleSpec(n_atoms=5)
        times = time_grid(1 * US, 0.1 * US)
        trace = simulate_ensemble(two_pulse_seq(tau=0.3 * US, t_end=1 * US), spec, times)
        g, e, s = trace.population_at(0.512 * US)
        i = 5
        assert g == trace.pop_ground[i]
        assert e == trace.pop_excited[i]
        assert s == trace.pop_spin[i]
