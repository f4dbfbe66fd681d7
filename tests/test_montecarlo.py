"""Tests for the simulation and brute-force oracle module.

The deterministic parts (crossing counting, reproducibility, closed-form
canonical integrals vs direct 2D quadrature) are exact; the stochastic
parts are checked at a few standard errors with fixed seeds.
"""

import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal, norm

from levelcross import montecarlo
from levelcross.crossings import mean_rate, variance_count, variance_rate_asymptotic
from levelcross.kernels import make_sdho, make_squared_exponential
from levelcross.montecarlo import (
    SimConfig,
    SimulationConfigError,
    _CHUNK,
    _trial_keys,
    bruteforce_theorem_integrals,
    bruteforce_variance,
    count_crossings,
    estimate_stats,
    lemma_residuals,
    sampled_mean_exact,
    simulate_kernel_paths,
    simulate_ou_system_paths,
    simulate_sdho_paths,
    theorem_total_closed_form,
    theorem_up_closed_form,
)

SDHO_PARAMS = {"omega0": 1.0, "zeta": 1.0, "theta": 1.0}


def sdho_config(**kw):
    base = dict(system="sdho", params=SDHO_PARAMS, T=30.0, dt=0.02,
                trials=64, seed=7, u=0.5)
    base.update(kw)
    return SimConfig(**base)


class TestConfigValidation:
    def test_coarse_dt_rejected(self):
        with pytest.raises(SimulationConfigError):
            sdho_config(dt=0.2)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(SimulationConfigError):
            sdho_config(T=0.0)
        with pytest.raises(SimulationConfigError):
            sdho_config(dt=-0.01)

    def test_too_few_trials_rejected(self):
        with pytest.raises(SimulationConfigError, match=r"trials must be an integer >= 2 \(got 1\)"):
            sdho_config(trials=1)

    @pytest.mark.parametrize("field, value", [
        ("trials", 2.5), ("trials", 64.0), ("trials", True), ("trials", "64"),
        ("seed", -1), ("seed", 1.5), ("seed", False), ("seed", None),
    ])
    def test_trials_and_seed_must_be_integers(self, field, value):
        # Checked when the config is built, with the field named, rather
        # than failing later inside numpy.
        with pytest.raises(SimulationConfigError, match=f"^{field} must be an integer >= "):
            sdho_config(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = sdho_config(trials=np.int64(4), seed=np.uint32(7), T=2.0)
        assert estimate_stats(cfg, bootstrap=4) == estimate_stats(sdho_config(trials=4, T=2.0),
                                                                  bootstrap=4)

    def test_unknown_system_rejected(self):
        with pytest.raises(SimulationConfigError):
            SimConfig(system="pendulum", params={}, dt=1e-3)

    def test_kernel_system_needs_kernel(self):
        with pytest.raises(SimulationConfigError):
            SimConfig(system="kernel", kernel=None, dt=1e-3)

    @pytest.mark.parametrize("params, message", [
        ({"omega0": 0.0, "zeta": 1.0, "theta": 1.0}, "omega0 and theta must be > 0"),
        ({"omega0": -1.0, "zeta": 1.0, "theta": 1.0}, "omega0 and theta must be > 0"),
        ({"omega0": 1.0, "zeta": math.nan, "theta": 1.0}, "zeta must be finite"),
        ({"omega0": 1.0, "theta": 1.0}, "'zeta'"),
    ])
    def test_linear_system_params_checked_by_its_kernel(self, params, message):
        with pytest.raises(SimulationConfigError, match=message):
            sdho_config(params=params)

    def test_ou_params_checked_by_its_kernel(self):
        with pytest.raises(SimulationConfigError, match="sigma, tau_f, tau_e must be > 0"):
            SimConfig(system="ou", params={"sigma": 1.0, "tau_f": 0.0, "tau_e": 1.0}, dt=1e-3)
        with pytest.raises(SimulationConfigError, match="'zeta'"):
            SimConfig(system="ou", params={"sigma": 1.0, "tau_f": 0.5, "tau_e": 1.0, "zeta": 2.0},
                      dt=1e-3)

    @pytest.mark.parametrize("system, params", [
        ("sdho", SDHO_PARAMS), ("ou", {"sigma": 1.0, "tau_f": 0.5, "tau_e": 1.0})])
    def test_linear_system_rejects_a_kernel(self, system, params):
        # The system's params set its kernel; a second one would be ignored.
        with pytest.raises(SimulationConfigError, match=f"^kernel must be None for system='{system}'"):
            SimConfig(system=system, params=params, kernel=make_sdho(1.0, 2.0, 1.0), dt=1e-3)

    def test_kernel_system_rejects_params(self):
        with pytest.raises(SimulationConfigError, match="^params must be empty for system='kernel'"):
            SimConfig(system="kernel", kernel=make_squared_exponential(1.0, 1.0),
                      params={"tau": 2.0}, dt=1e-3)

    def test_kernel_paths_draw_the_configs_kernel(self):
        # dt was checked against config.kernel, so no other kernel is drawn.
        se = make_squared_exponential(1.0, 1.0)
        cfg = SimConfig(system="kernel", kernel=se, T=2.0, dt=0.02, trials=2)
        for other, config in ((make_squared_exponential(1.0, 1.0), cfg),
                              (se, sdho_config(T=2.0, trials=2))):
            with pytest.raises(SimulationConfigError, match="^kernel must be config.kernel"):
                simulate_kernel_paths(other, config)
        assert len(list(simulate_kernel_paths(se, cfg))) == 2

    @pytest.mark.parametrize("system", ["sdho", "kernel"])
    def test_window_without_a_step_rejected(self, system):
        # T = 0.004 rounds to no step of 0.01.
        kernel = dict(kernel=make_squared_exponential(1.0, 1.0)) if system == "kernel" else {}
        with pytest.raises(SimulationConfigError, match="holds no step of dt"):
            sdho_config(system=system, T=0.004, dt=0.01, **kernel)

    @pytest.mark.parametrize("window", [{"dt": math.nan}, {"T": math.inf}, {"T": math.nan}])
    def test_nonfinite_window_rejected(self, window):
        with pytest.raises(SimulationConfigError, match="must be finite"):
            sdho_config(**window)

    def test_steps_round_trip(self):
        assert sdho_config(T=30.0, dt=0.02).n_steps == 1500


class TestCounting:
    def test_half_open_convention(self):
        path = np.array([0.0, 1.0, 0.5, 1.0, -1.0])
        assert count_crossings(path, 1.0, "up") == 2
        assert count_crossings(path, 1.0, "down") == 2
        assert count_crossings(path, 1.0, "total") == 4

    def test_monotone_path(self):
        path = np.linspace(-1.0, 1.0, 50)
        assert count_crossings(path, 0.0, "up") == 1
        assert count_crossings(path, 0.0, "down") == 0

    def test_sine_wave(self):
        t = np.linspace(0.0, 10.0, 100001)
        path = np.sin(2.0 * math.pi * t)
        # First sample sits exactly on the zero level, so the half-open
        # convention counts 9 completed upcrossings in 10 periods.
        assert count_crossings(path, 0.0, "up") == 9
        assert count_crossings(path, 0.5, "up") == 10
        assert count_crossings(path, 0.5, "total") == 20

    def test_short_path_rejected(self):
        with pytest.raises(ValueError):
            count_crossings(np.array([1.0]), 0.0)


class TestSimulators:
    def test_bit_identical_reruns(self):
        cfg = sdho_config(trials=8, T=5.0)
        a = np.stack(list(simulate_sdho_paths(cfg)))
        b = np.stack(list(simulate_sdho_paths(cfg)))
        assert np.array_equal(a, b)

    def test_trials_independent_of_chunking(self):
        # Trial i uses its own counter-keyed stream, so asking for more
        # trials must not change the earlier ones.
        small = np.stack(list(simulate_sdho_paths(sdho_config(trials=4, T=5.0))))
        large = np.stack(list(simulate_sdho_paths(sdho_config(trials=12, T=5.0))))
        assert np.array_equal(large[:4], small)

    def test_kernel_trials_independent_of_chunking(self):
        # The circulant sampler transforms trials in groups; a trial's path
        # must not depend on the group or the chunk it falls in.  (A config
        # needs two trials, so two stand for one.)
        kernel = make_squared_exponential(1.0, 1.0)

        def paths(trials):
            cfg = SimConfig(system="kernel", kernel=kernel, T=20.0, dt=0.02, trials=trials, seed=3)
            return np.stack(list(simulate_kernel_paths(kernel, cfg)))

        large = paths(300)
        for trials in (12, 2):
            assert np.array_equal(paths(trials), large[:trials])

    def test_trial_keys_match_seed_sequence(self):
        # Trial i's stream is keyed by SeedSequence(seed, spawn_key=(i,)),
        # for seeds of one and of several 32-bit words.
        for seed in (0, 7, 2**40 + 3, 3**90):
            keys = _trial_keys(seed, 250, 260)
            for trial, key in zip(range(250, 260), keys):
                ref = np.random.SeedSequence(seed, spawn_key=(trial,)).generate_state(2, np.uint64)
                assert np.array_equal(key, ref)

    def test_sdho_stationary_variance(self):
        cfg = sdho_config(trials=256, T=20.0)
        x0 = np.array([p[0] for p in simulate_sdho_paths(cfg)])
        # Var x = theta / omega0^2 = 1; SE of the sample variance ~ 0.09.
        assert np.var(x0) == pytest.approx(1.0, abs=0.35)

    def test_kernel_paths_match_autocovariance(self):
        k = make_squared_exponential(1.0, 1.0)
        cfg = SimConfig(system="kernel", kernel=k, T=8.0, dt=0.04,
                        trials=512, seed=3)
        block = np.stack(list(simulate_kernel_paths(k, cfg)))
        lag = 25  # 1.0 time units
        est = float(np.mean(block[:, :-lag] * block[:, lag:]))
        assert est == pytest.approx(k.eval(1.0).r, abs=0.08)


class TestTimeBlocks:
    """Linear paths are made, and their steps screened, one time block at a
    time."""

    def test_block_length_changes_no_bit(self, monkeypatch):
        # 545 steps: 18 blocks of at most 32 steps, 2 of the default 512, or
        # one; 300 trials: a full chunk and a partial one.
        sdho = sdho_config(T=10.9, trials=300, u=0.3, mode="total")
        ou = SimConfig(system="ou", params={"sigma": 1.0, "tau_f": 0.5, "tau_e": 1.0},
                       T=10.9, dt=0.02, trials=300, seed=3, u=0.3)
        assert montecarlo._BLOCK_STEPS < sdho.n_steps == 545

        def run():
            return ([repr(estimate_stats(cfg, bootstrap=20)) for cfg in (sdho, ou)],
                    np.stack(list(simulate_sdho_paths(sdho))),
                    np.stack(list(simulate_ou_system_paths(ou))))

        default = run()
        for steps in (32, 10**6):
            monkeypatch.setattr(montecarlo, "_BLOCK_STEPS", steps)
            estimates, sdho_paths, ou_paths = run()
            assert estimates == default[0]
            assert np.array_equal(sdho_paths, default[1])
            assert np.array_equal(ou_paths, default[2])

    def test_memory_does_not_grow_with_horizon(self):
        # Whole-path noise and state buffers of 64 trials of 50,000 steps
        # would hold about 100 MB.
        cfg = sdho_config(T=1000.0, trials=64)
        assert cfg.n_steps == 50_000
        tracemalloc.start()
        try:
            estimate_stats(cfg, bootstrap=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestRefineGroups:
    """Many steps left to refine are refined a group of trials at a time."""

    def test_group_size_changes_no_bit(self, monkeypatch):
        # 300 trials: a full chunk and a partial one, each some 10^3 steps
        # to refine, in one group or in groups of one to a few trials.
        cfg = sdho_config(params={"omega0": 1.0, "zeta": 2.0, "theta": 1.0}, T=20.0,
                          trials=300, u=0.0, mode="total")
        default = repr(estimate_stats(cfg, bootstrap=20))
        for steps in (1, 64):
            monkeypatch.setattr(montecarlo, "_REFINE_STEPS", steps)
            assert repr(estimate_stats(cfg, bootstrap=20)) == default

    def test_memory_does_not_grow_with_crossings(self):
        # At zeta = 2, u = 0 and dt = 0.01 tau_slow, some 50,000 steps are
        # left to refine; refined at once they peak near 18 MB.
        kernel = make_sdho(1.0, 2.0, 1.0)
        dt = 0.01 * kernel.tau_slow
        cfg = sdho_config(params=dict(kernel.params), T=50_000 * dt, dt=dt, u=0.0)
        assert cfg.n_steps == 50_000
        tracemalloc.start()
        try:
            estimate_stats(cfg, bootstrap=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6


class TestEstimates:
    def test_matches_closed_forms(self):
        cfg = sdho_config(params={"omega0": 1.0, "zeta": 0.5, "theta": 1.0},
                          T=60.0, dt=0.02, trials=600, seed=11, u=0.5)
        est = estimate_stats(cfg)
        st = variance_count(make_sdho(1.0, 0.5, 1.0), 0.5, 60.0, "up")
        z_mean = (est.mean - st.mean) / est.se_mean
        z_var = (est.variance - st.variance) / est.se_variance
        assert abs(z_mean) < 4.0
        assert abs(z_var) < 4.0

    def test_counts_crossings_between_samples(self):
        # Overdamped oscillator at a coarse step: counting sign changes
        # between samples misses about 3% of the crossings, several standard
        # errors here, so only a continuous-time count matches the closed
        # forms.
        cfg = sdho_config(params={"omega0": 1.0, "zeta": 2.0, "theta": 1.0},
                          T=200.0, dt=0.05, trials=1500, seed=20240, u=0.0)
        st = variance_count(make_sdho(1.0, 2.0, 1.0), 0.0, 200.0, "up")
        sampled = np.array([count_crossings(p, 0.0, "up") for p in simulate_sdho_paths(cfg)])
        z_sampled = (sampled.mean() - st.mean) / math.sqrt(sampled.var(ddof=1) / cfg.trials)
        assert z_sampled < -5.0
        est = estimate_stats(cfg)
        z_mean = (est.mean - st.mean) / est.se_mean
        z_var = (est.variance - st.variance) / est.se_variance
        assert abs(z_mean) < 4.0
        assert abs(z_var) < 4.0

    def test_estimate_reproducible(self):
        cfg = sdho_config(trials=64, T=20.0)
        a = estimate_stats(cfg)
        b = estimate_stats(cfg)
        assert (a.mean, a.variance, a.fano) == (b.mean, b.variance, b.fano)
        assert (a.se_mean, a.se_variance, a.se_fano) == (b.se_mean, b.se_variance, b.se_fano)

    def test_finer_step_does_not_count_fewer(self):
        # Discrete sampling can only miss crossings, so halving dt should
        # not reduce the mean count beyond statistical noise.
        coarse = estimate_stats(sdho_config(trials=256, T=30.0, dt=0.05, u=0.0))
        fine = estimate_stats(sdho_config(trials=256, T=30.0, dt=0.01, u=0.0))
        slack = 3.0 * math.hypot(coarse.se_mean, fine.se_mean)
        assert fine.mean >= coarse.mean - slack

    def test_total_counts_both_directions(self):
        up = estimate_stats(sdho_config(trials=64, T=20.0, mode="up"))
        tot = estimate_stats(sdho_config(trials=64, T=20.0, mode="total"))
        assert tot.mean > 1.5 * up.mean

    @pytest.mark.parametrize("bootstrap", [0, 1])
    def test_bootstrap_needs_two_resamples(self, bootstrap):
        with pytest.raises(ValueError, match="bootstrap"):
            estimate_stats(sdho_config(trials=4, T=2.0), bootstrap=bootstrap)

    def test_uncrossed_level_has_no_fano_error(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = estimate_stats(sdho_config(trials=20, T=10.0, u=8.0), bootstrap=20)
        assert est.mean == est.variance == est.se_mean == est.se_variance == 0.0
        assert math.isnan(est.fano) and math.isnan(est.se_fano)

    @pytest.mark.parametrize("u, mode", [(0.0, "up"), (0.7, "up"), (-1.3, "down"), (1.1, "total")])
    def test_sampled_mean_matches_bivariate_normal(self, u, mode):
        # n_steps (Phi(h) - Phi_2(h, h; rho)) per direction, with Phi_2 from
        # scipy's bivariate normal CDF.
        kernel = make_squared_exponential(1.5, 0.8)
        cfg = SimConfig(system="kernel", kernel=kernel, T=4.0, dt=0.04, trials=2, u=u, mode=mode)
        rho = kernel.eval(cfg.dt).r / kernel.r0
        h = u / math.sqrt(kernel.r0)
        pair = norm.cdf(h) - multivariate_normal.cdf(
            [h, h], mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]], abseps=1e-12, releps=1e-12)
        expected = cfg.n_steps * pair * (2.0 if mode == "total" else 1.0)
        assert sampled_mean_exact(cfg) == pytest.approx(expected, rel=1e-9)

    def test_sampled_mean_needs_kernel_system(self):
        with pytest.raises(SimulationConfigError):
            sampled_mean_exact(sdho_config(trials=2))


class TestGeneratorPool:
    """Each thread keeps one pool of generators, re-keyed for every chunk."""

    def test_threads_match_sequential(self):
        # More threads than cores, each with two chunks of trials.
        configs = [sdho_config(trials=300, T=10.0, seed=1),
                   sdho_config(trials=300, T=10.0, seed=2, mode="total"),
                   SimConfig(system="ou", params={"sigma": 1.0, "tau_f": 0.5, "tau_e": 1.0},
                             T=10.0, dt=0.02, trials=300, seed=3, u=0.3),
                   SimConfig(system="kernel", kernel=make_squared_exponential(1.0, 1.0),
                             T=10.0, dt=0.02, trials=300, seed=4, u=0.3)]
        alone = [repr(estimate_stats(cfg, bootstrap=20)) for cfg in configs]
        together = [None] * len(configs)
        start = threading.Barrier(len(configs), timeout=60)

        def run(i):
            start.wait()
            together[i] = repr(estimate_stats(configs[i], bootstrap=20))

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(configs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so that the chunks interleave
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert together == alone

    def test_interleaved_iterators_match_each_alone(self):
        sdho = sdho_config(trials=300, T=4.0, seed=5)
        ou = SimConfig(system="ou", params={"sigma": 1.0, "tau_f": 0.5, "tau_e": 1.0},
                       T=4.0, dt=0.02, trials=300, seed=6)
        se = make_squared_exponential(1.0, 1.0)
        kern = SimConfig(system="kernel", kernel=se, T=4.0, dt=0.02, trials=300, seed=7)

        def iterators():
            return (simulate_sdho_paths(sdho), simulate_ou_system_paths(ou),
                    simulate_kernel_paths(se, kern))

        alone = [np.stack(list(it)) for it in iterators()]
        together = [[], [], []]
        for paths in zip(*iterators()):
            for got, path in zip(together, paths):
                got.append(path)
        for got, want in zip(together, alone):
            assert np.array_equal(np.stack(got), want)

    def test_second_call_builds_no_generator(self, monkeypatch):
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(None)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        per_call = []

        def run():  # a fresh thread, whose pool is not built yet
            for _ in range(2):
                before = len(built)
                list(simulate_sdho_paths(sdho_config(trials=8, T=2.0)))
                per_call.append(len(built) - before)

        thread = threading.Thread(target=run)
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert per_call == [_CHUNK, 0]


class TestCanonicalIntegrals:
    def test_closed_forms_match_quadrature(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = float(rng.uniform(0.1, 10.0))
            b = float(rng.uniform(0.1, 10.0))
            g = float(rng.uniform(-3.0, 3.0))
            up_ref, tot_ref = bruteforce_theorem_integrals(a, b, g)
            assert theorem_up_closed_form(a, b, g) == pytest.approx(up_ref, rel=1e-9)
            assert theorem_total_closed_form(a, b, g) == pytest.approx(tot_ref, rel=1e-9)

    def test_even_in_gamma(self):
        for a, b, g in ((2.0, 3.0, 1.5), (0.3, 8.0, 0.4), (5.0, 0.7, 2.6)):
            assert theorem_up_closed_form(a, b, g) == pytest.approx(
                theorem_up_closed_form(a, b, -g), rel=1e-13
            )
            assert theorem_total_closed_form(a, b, g) == pytest.approx(
                theorem_total_closed_form(a, b, -g), rel=1e-13
            )

    def test_gamma_zero_arctan_corollary(self):
        # At gamma = 0 the upcrossing integral reduces to
        # (sqrt(ab) + (a-b) arctan(sqrt(a/b))) / (2 (ab)^{3/2}).
        for a, b in ((1.0, 1.0), (0.5, 3.0), (7.0, 0.2)):
            expected = (math.sqrt(a * b) + (a - b) * math.atan(math.sqrt(a / b))) / (
                2.0 * (a * b) ** 1.5
            )
            assert theorem_up_closed_form(a, b, 0.0) == pytest.approx(expected, rel=1e-13)
        # Equal widths: the arctan term vanishes and the value is 1/(2 a^2).
        assert theorem_up_closed_form(2.0, 2.0, 0.0) == pytest.approx(0.125, rel=1e-13)

    def test_lemma_identities_hold(self):
        residuals = lemma_residuals(seed=0, draws=50)
        for name, worst in residuals.items():
            assert worst < 1e-9, (name, worst)


class TestBruteforceVariance:
    def test_matches_closed_variance_at_short_horizon(self):
        k = make_sdho(1.0, 1.0, 1.0)
        closed = variance_count(k, 0.5, 2.0, "up").variance
        brute = bruteforce_variance(k, 0.5, 2.0, "up")
        assert brute == pytest.approx(closed, rel=1e-6)


class TestLongHorizonRate:
    def test_variance_rate_approaches_asymptote(self):
        k = make_sdho(1.0, 1.0, 1.0)
        asym = variance_rate_asymptotic(k, 0.5, "up").variance
        finite = variance_count(k, 0.5, 200.0, "up").variance / 200.0
        assert finite == pytest.approx(asym, rel=0.01)

    def test_mean_rate_consistency(self):
        k = make_sdho(1.0, 1.0, 1.0)
        st = variance_count(k, 0.5, 50.0, "up")
        assert st.mean == pytest.approx(50.0 * mean_rate(k, 0.5, "up"), rel=1e-12)
