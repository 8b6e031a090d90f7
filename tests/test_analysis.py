import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qpjumps.analysis import (
    DwellHistogram,
    StateEstimate,
    cross_correlation,
    extract_dwells,
    fidelity,
    log_histogram,
    poisson_prediction,
    polarization,
    split_windows,
    two_point_filter,
    window_samples,
    windowed_report,
)
from qpjumps.core import MeasurementParams, polarization_to_temperature
from qpjumps.jumpsim import (
    _BLOCK,
    IQRecord,
    STATE_EXCITED,
    STATE_GROUND,
    TruthTrace,
    snr_separation,
)

from support import noiseless_iq, qubit_intervals, whole_record_filter

TM = 5e-6


def record(i_values, t_meas=TM):
    """A record of I values; a float32 array stays float32, the rest are
    float64."""
    i = np.asarray(i_values)
    if i.dtype != np.float32:
        i = i.astype(np.float64)
    return IQRecord(t_meas=t_meas, i=i, q=np.zeros_like(i))


def estimate(states, t_meas=TM):
    return StateEstimate(t_meas=t_meas, states=np.asarray(states, dtype=np.uint8))


class TestTwoPointFilter:
    def test_hand_worked_example(self):
        est = two_point_filter(record([2.5, 0.0, -2.3]), separation=2.59)
        assert list(est.states) == [STATE_GROUND, STATE_GROUND, STATE_EXCITED]

    def test_constant_high_signal(self):
        est = two_point_filter(record([2.5, 2.7, 3.0, 2.4]), separation=2.59)
        assert np.all(est.states == STATE_GROUND)

    def test_initial_state_from_sign(self):
        est = two_point_filter(record([-0.5, 0.1, -0.2]), separation=2.59)
        assert np.all(est.states == STATE_EXCITED)

    def test_holds_through_dead_band(self):
        # separation 2.0 puts the thresholds at -1.5 and +1.5
        est = two_point_filter(record([-3.0, 0.0, 1.4, -1.4, 3.0, 0.0]), separation=2.0)
        assert list(est.states) == [1, 1, 1, 1, 0, 0]

    def test_thresholds_half_sigma_from_each_destination(self):
        # separation 2.59 puts the thresholds at -2.09 and +2.09; a sample
        # decides only strictly past one, from either side
        eps = 1e-9
        est = two_point_filter(
            record([2.5, -2.09 + eps, -2.09 - eps, 2.09 - eps, 2.09 + eps]), separation=2.59)
        assert list(est.states) == [STATE_GROUND, STATE_GROUND, STATE_EXCITED,
                                    STATE_EXCITED, STATE_GROUND]

    # samples on the float32 rounding of each threshold and one float32
    # step either side (and, in float64, one float64 step either side of
    # the threshold itself), each after a sample decided either way: every
    # decision is the exact comparison with the float64 threshold.  The
    # nearest float32 takes 2.59's thresholds towards 0 and 1.7's away
    # from it, so rounding to nearest misdecides at 1.7; 2.0's are float32
    # exactly.  At 3.5e38 and 1e308 they are past float32's range, where a
    # cast of them overflowed
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("separation", [2.59, 1.7, 2.0, 1.0 + 2**-40, 3.5e38, 1e308])
    def test_decisions_at_the_float32_neighbours_of_the_thresholds(self, dtype,
                                                                   separation):
        to_excited, to_ground = -separation + 0.5, separation - 0.5
        big = float(np.finfo(np.float32).max)
        xs = []
        with np.errstate(over="ignore"):  # one step past float32's largest
            for t in (to_excited, to_ground):
                near = np.float32(min(max(t, -big), big))
                xs += [np.nextafter(near, np.float32(-math.inf)), near,
                       np.nextafter(near, np.float32(math.inf))]
                if dtype == np.float64:
                    xs += [np.nextafter(t, -math.inf), t, np.nextafter(t, math.inf)]
        i = np.array([v for x in xs for v in (math.inf, x, -math.inf, x)], dtype=dtype)
        est = two_point_filter(record(i), separation)
        assert np.array_equal(est.states, whole_record_filter(record(i), separation).states)
        after_ground, after_excited = est.states.reshape(-1, 4)[:, [1, 3]].T
        x = i[1::4].astype(np.float64)
        assert after_ground.tolist() == np.where(x < to_excited, STATE_EXCITED,
                                                 STATE_GROUND).tolist()
        assert after_excited.tolist() == np.where(x > to_ground, STATE_GROUND,
                                                  STATE_EXCITED).tolist()

    def test_requires_separated_thresholds(self):
        with pytest.raises(ValueError):
            two_point_filter(record([1.0, 2.0]), separation=1.0)

    @pytest.mark.parametrize("separation", [math.nan, math.inf])
    def test_refuses_a_separation_that_is_not_finite(self, separation):
        with pytest.raises(ValueError, match="separation must be finite"):
            two_point_filter(record([1.0, 2.0]), separation=separation)

    @given(st.lists(st.floats(min_value=-6, max_value=6), min_size=1, max_size=200))
    def test_sign_flip_swaps_labels(self, values):
        i = np.asarray(values)
        if i[0] == 0.0:  # sign convention ties the initial state to >= 0
            i[0] = 0.5
        a = two_point_filter(record(i), separation=2.59).states
        b = two_point_filter(record(-i), separation=2.59).states
        assert np.all(a != b)


@st.composite
def dead_band_records(draw):
    """I values in runs: below the excited threshold, above the ground one,
    or undecided (in the dead band or exactly on a threshold).  The record
    opens undecided, and run lengths put undecided stretches across block
    boundaries."""
    sep = 2.59
    lo, hi = -sep + 0.5, sep - 0.5
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = st.sampled_from((1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 17))
    runs = [("u", draw(lengths))]
    runs += draw(st.lists(st.tuples(st.sampled_from("egu"), lengths), max_size=6))
    parts = []
    for kind, length in runs:
        if kind == "e":
            parts.append(rng.uniform(-sep - 3.0, lo, length) - 1e-9)
        elif kind == "g":
            parts.append(rng.uniform(hi, sep + 3.0, length) + 1e-9)
        else:
            parts.append(rng.choice([lo, hi, 0.0, rng.uniform(lo, hi)], length))
    return record(np.concatenate(parts)), sep


class TestFilterOracle:
    @settings(max_examples=40, deadline=None)
    @given(dead_band_records())
    def test_equals_whole_record_forward_fill(self, case):
        iq, sep = case
        got = two_point_filter(iq, sep)
        want = whole_record_filter(iq, sep)
        assert got.states.dtype == want.states.dtype
        assert np.array_equal(got.states, want.states)


    @settings(max_examples=40, deadline=None)
    @given(dead_band_records(), st.lists(st.floats(0.0, 1.0), max_size=6))
    def test_blocks_with_the_state_carried_equal_the_whole_record(self, case, cuts):
        iq, sep = case
        n = len(iq)
        bounds = sorted({0, n, *(int(c * n) for c in cuts)})
        states, carry = [], None
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            block = two_point_filter(record(iq.i[lo:hi]), sep, carry).states
            carry = block[-1]
            states.append(block)
        assert np.array_equal(np.concatenate(states), two_point_filter(iq, sep).states)


class TestExtractDwells:
    def test_interior_dwell_only(self):
        d = extract_dwells(estimate([0, 0, 1, 1, 1, 0]))
        assert len(d.ground) == 0
        assert list(d.excited) == [pytest.approx(15e-6)]

    def test_constant_record_is_empty(self):
        d = extract_dwells(estimate([0] * 10))
        assert len(d.ground) == 0 and len(d.excited) == 0

    def test_two_runs_still_empty(self):
        d = extract_dwells(estimate([0, 0, 1, 1]))
        assert len(d.ground) == 0 and len(d.excited) == 0

    def test_alternating_gives_single_samples(self):
        d = extract_dwells(estimate([0, 1, 0, 1, 0, 1]))
        assert np.all(d.ground == pytest.approx(TM))
        assert np.all(d.excited == pytest.approx(TM))
        assert len(d.ground) + len(d.excited) == 4

    @given(st.lists(st.integers(min_value=1, max_value=9), min_size=3, max_size=30))
    def test_sample_weighted_identity(self, run_lengths):
        states = np.concatenate([
            np.full(k, i % 2, dtype=np.uint8) for i, k in enumerate(run_lengths)
        ])
        d = extract_dwells(estimate(states))
        interior_samples = sum(run_lengths[1:-1])
        hist_total = 0.0
        for dwells in (d.ground, d.excited):
            if len(dwells):
                hist_total += log_histogram(dwells, TM).total
        assert hist_total == pytest.approx(interior_samples)


class TestLogHistogram:
    def test_counting_rule(self):
        dwells = [10e-6, 10e-6, 10e-6, 100e-6]
        hist = log_histogram(dwells, TM, bins_per_decade=10)
        centers = hist.centers()
        bin_10us = np.searchsorted(hist.edges, 10e-6, side="right") - 1
        bin_100us = np.searchsorted(hist.edges, 100e-6, side="right") - 1
        assert hist.counts[bin_10us] == 6
        assert hist.counts[bin_100us] == 20
        assert hist.total == 26
        assert hist.counts.sum() == hist.total

    def test_single_dwell(self):
        hist = log_histogram([35e-6], TM)
        assert hist.total == 7
        assert hist.tau_mean == pytest.approx(35e-6)

    def test_linearity(self):
        dwells = [10e-6, 15e-6, 40e-6, 40e-6, 200e-6]
        one = log_histogram(dwells, TM)
        two = log_histogram(dwells * 2, TM)
        assert np.all(two.counts == 2 * one.counts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            log_histogram([], TM)


def uniform_log_hist(total, tau_mean, center, log_width=0.1):
    half = 10.0 ** (log_width / 2)
    return DwellHistogram(
        edges=np.array([center / half, center * half]),
        log_width=log_width,
        counts=np.array([float(total)]),
        total=float(total),
        tau_mean=tau_mean,
    )


class TestPoissonPrediction:
    def test_frozen_value_at_mean_dwell(self):
        hist = uniform_log_hist(total=1000, tau_mean=1e-3, center=1e-3)
        p = poisson_prediction(hist)
        expected = 1000 * 0.1 / 1e-3 * math.log(10) * 1e-3 * 1.0 * math.exp(-1)
        assert p[0] == pytest.approx(expected, rel=1e-9)
        assert expected == pytest.approx(84.7, abs=0.05)

    def test_vanishes_at_short_dwells(self):
        hist = uniform_log_hist(total=1000, tau_mean=1e-3, center=1e-6)
        assert poisson_prediction(hist)[0] < 1e-2

    def test_peak_at_twice_mean_dwell(self):
        tau_mean = 1e-3
        dwells = np.full(200, tau_mean)
        hist = log_histogram(dwells, 1e-6, bins_per_decade=100)
        # build a finely binned prediction over a wide grid
        edges = 1e-5 * 10.0 ** (np.arange(400) / 100)
        fine = DwellHistogram(
            edges=edges, log_width=0.01,
            counts=np.zeros(len(edges) - 1), total=hist.total, tau_mean=tau_mean,
        )
        p = poisson_prediction(fine)
        peak = fine.centers()[np.argmax(p)]
        assert peak == pytest.approx(2 * tau_mean, rel=0.05)

    def test_normalization_matches_total(self):
        rng = np.random.default_rng(8)
        tau_mean = 1e-3
        dwells = rng.exponential(tau_mean, size=20_000)
        t_meas = tau_mean / 100
        hist = log_histogram(dwells, t_meas, bins_per_decade=10)
        p = poisson_prediction(hist)
        assert p.sum() == pytest.approx(hist.total, rel=0.02)


class TestFidelity:
    def test_identical_histograms(self):
        m = np.array([4.0, 5.0, 1.0])
        assert fidelity(m, m) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert fidelity([1, 0, 2], [0, 3, 0]) == 0.0

    def test_hand_value(self):
        f = fidelity([1, 3], [3, 1])
        assert f == pytest.approx(2 * math.sqrt(3) / 4, rel=1e-12)
        assert 1.0 - f == pytest.approx(1 - 2 * math.sqrt(3) / 4, rel=1e-9)

    def test_all_zero_measured(self):
        with pytest.raises(ValueError):
            fidelity([0, 0], [1, 2])

    @given(
        m=st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=1e-3, max_value=100)),
            min_size=2, max_size=20,
        ),
        c=st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_scale_consistency(self, m, c):
        m = np.asarray(m)
        if m.sum() == 0:
            return
        p = m[::-1].copy()
        base = fidelity(m, p)
        scaled = fidelity(c * m, c * p)
        assert scaled == pytest.approx(base, rel=1e-9)


class TestPolarization:
    def test_all_ground(self):
        assert polarization(estimate([0, 0, 0])) == (0.0, 1.0)

    def test_even_split(self):
        p_e, sz = polarization(estimate([0, 1] * 10))
        assert p_e == 0.5 and sz == 0.0

    def test_measured_population_to_temperature(self):
        states = np.zeros(100, dtype=np.uint8)
        states[:33] = STATE_EXCITED
        p_e, sz = polarization(estimate(states))
        assert p_e == pytest.approx(0.33)
        assert sz == pytest.approx(0.34)
        assert polarization_to_temperature(p_e, 665e6) == pytest.approx(0.045, abs=5e-4)


class TestCrossCorrelation:
    def test_self_correlation(self):
        a = np.array([0.3, 1.2, -0.5, 2.2])
        assert cross_correlation(a, a) == pytest.approx(1.0)

    def test_anti_correlation(self):
        a = np.array([0.3, 1.2, -0.5, 2.2])
        assert cross_correlation(a, -a) == pytest.approx(-1.0)

    def test_affine_relation(self):
        assert cross_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_constant_series_rejected(self):
        with pytest.raises(ValueError):
            cross_correlation([1, 1, 1], [1, 2, 3])

    @given(
        alpha=st.floats(min_value=1e-3, max_value=1e3),
        beta=st.floats(min_value=-10, max_value=10),
    )
    def test_affine_invariance(self, alpha, beta):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        base = cross_correlation(a, b)
        assert cross_correlation(alpha * a + beta, b) == pytest.approx(base, rel=1e-9, abs=1e-12)


def markov_states(n, p_flip_g, p_flip_e, rng):
    """Discrete two-state chain sampled per bin: the constant-rate oracle."""
    u = rng.random(n)
    states = np.empty(n, dtype=np.uint8)
    s = 0
    for k in range(n):
        if s == 0 and u[k] < p_flip_g:
            s = 1
        elif s == 1 and u[k] < p_flip_e:
            s = 0
        states[k] = s
    return states


class TestWindowedReport:
    def test_constant_rate_windows_are_poissonian(self):
        rng = np.random.default_rng(17)
        # tau_g = tau_e = 20 samples -> ~5000 dwells per 1 s window
        states = markov_states(600_000, 0.05, 0.05, rng)
        report = windowed_report(estimate(states), window=1.0)
        assert len(report) == 3
        assert np.all(report.fidelity_ground > 0.95)
        assert np.all(np.abs(report.tau_ground - 20 * TM) < 2e-5)

    def test_all_ground_window_is_missing(self):
        states = np.zeros(1000, dtype=np.uint8)
        report = windowed_report(estimate(states), window=1000 * TM)
        assert math.isnan(report.tau_ground[0])
        assert math.isnan(report.fidelity_ground[0])
        assert report.sigma_z[0] == 1.0

    def test_sparse_window_has_no_fidelity(self):
        states = np.zeros(2000, dtype=np.uint8)
        states[500:520] = 1  # two jumps -> one interior dwell
        report = windowed_report(estimate(states), window=2000 * TM)
        assert report.tau_excited[0] == pytest.approx(20 * TM)
        assert math.isnan(report.fidelity_ground[0])

    def test_window_must_cover_enough_samples(self):
        with pytest.raises(ValueError):
            windowed_report(estimate(np.zeros(1000, dtype=np.uint8)), window=50 * TM)

    @pytest.mark.parametrize("window", [math.nan, math.inf, -math.inf])
    def test_window_must_be_finite(self, window):
        with pytest.raises(ValueError, match="window must be a finite number of seconds"):
            window_samples(window, TM)

    # 1e308 / 5e-6 overflows to inf, whose round() raised OverflowError
    @pytest.mark.parametrize("window, t_meas", [(1e308, TM), (1e-3, 5e-324)])
    def test_window_of_no_finite_sample_count_is_refused(self, window, t_meas):
        with pytest.raises(ValueError, match="samples, not a finite count"):
            window_samples(window, t_meas)

    def test_split_windows_are_the_report_windows(self):
        states = markov_states(1050, 0.05, 0.05, np.random.default_rng(3))
        est = estimate(states)
        report = windowed_report(est, window=200 * TM)
        windows = split_windows(est, report.window)
        # the last 50 samples are dropped
        assert len(windows) == len(report) == len(report.dwells) == 5
        for w, sub in enumerate(windows):
            assert sub.t_meas == TM
            assert np.array_equal(sub.states, states[200 * w:200 * (w + 1)])
            assert polarization(sub)[1] == report.sigma_z[w]
            want = extract_dwells(sub)
            assert np.array_equal(report.dwells[w].ground, want.ground)
            assert np.array_equal(report.dwells[w].excited, want.excited)


class TestNoiseFreePipeline:
    def _truth_from_runs(self, run_samples, t_meas=TM):
        times, states = [], []
        t = 0.0
        state = STATE_GROUND
        for k in run_samples:
            t += k * t_meas
            state = 1 - state
            times.append(t)
            states.append(state)
        return TruthTrace(
            duration=t, times=np.array([0.0] + times[:-1]),
            states=np.array([STATE_GROUND] + states[:-1], dtype=np.uint8),
            counts=np.zeros(len(times), dtype=np.int64),
        )

    def test_bin_aligned_jumps_recovered_exactly(self):
        rng = np.random.default_rng(23)
        runs = rng.integers(2, 40, size=101)
        truth = self._truth_from_runs(runs)
        meas = MeasurementParams()
        iq = noiseless_iq(truth, meas)
        est = two_point_filter(iq, separation=snr_separation(meas))
        d = extract_dwells(est)
        interior = runs[1:-1]
        expected_g = interior[1::2] * TM  # first interior run is excited
        expected_e = interior[0::2] * TM
        assert np.allclose(np.sort(d.ground), np.sort(expected_g))
        assert np.allclose(np.sort(d.excited), np.sort(expected_e))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(min_value=2.2, max_value=50), min_size=3, max_size=60))
    def test_unaligned_jumps_within_one_sample(self, dwell_bins):
        t_meas = TM
        times = np.cumsum(np.asarray(dwell_bins)) * t_meas
        duration = float(times[-1] + 10 * t_meas)
        n = len(times)
        states = np.array([(k + 1) % 2 for k in range(n)], dtype=np.uint8)
        truth = TruthTrace(
            duration=duration, times=np.concatenate(([0.0], times)),
            states=np.concatenate(([STATE_GROUND], states)).astype(np.uint8),
            counts=np.zeros(n + 1, dtype=np.int64),
        )
        meas = MeasurementParams()
        iq = noiseless_iq(truth, meas)
        est = two_point_filter(iq, separation=snr_separation(meas))
        d = extract_dwells(est)
        _, true_durations, true_states = qubit_intervals(truth)
        for state, got in ((STATE_GROUND, d.ground), (STATE_EXCITED, d.excited)):
            want = np.sort(true_durations[1:-1][true_states[1:-1] == state])
            got = np.sort(got)
            assert len(got) == len(want)
            if len(got):
                assert np.max(np.abs(got - want)) <= t_meas * (1 + 1e-9)
