import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parrondo_maps import ifs
from parrondo_maps.circle import Angle
from parrondo_maps.ifs import (
    IfsConfig,
    IfsStats,
    bernoulli_sequence,
    expectation_recurrence_check,
    monte_carlo,
    monte_carlo_grid,
    run_ifs,
    sequence_rng,
    theoretical_bounds,
)
from parrondo_maps.planar import CylPoint


def small_config(**overrides):
    base = dict(p=0.5, a=5.0, seed=20240, horizon=400, n_sequences=100)
    base.update(overrides)
    return IfsConfig(**base)


class TestBernoulliSequences:
    def test_deterministic_per_seed_and_stream(self):
        a = bernoulli_sequence(0.3, 1000, seed=1, stream=7)
        b = bernoulli_sequence(0.3, 1000, seed=1, stream=7)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = bernoulli_sequence(0.5, 1000, seed=1, stream=0)
        b = bernoulli_sequence(0.5, 1000, seed=1, stream=1)
        assert not np.array_equal(a, b)

    def test_symbol_zero_frequency(self):
        # Binomial concentration: 3 standard errors around p.
        p, n = 0.3, 20000
        seq = bernoulli_sequence(p, n, seed=5)
        freq = float(np.mean(seq == 0))
        assert abs(freq - p) <= 3.0 * math.sqrt(p * (1 - p) / n)

    def test_boundary_probabilities_rejected(self):
        for bad in (0.0, 1.0, -0.2, 1.7, math.nan, np.array([[0.5], [1.0]])):
            with pytest.raises(ValueError, match="strictly between 0 and 1"):
                bernoulli_sequence(bad, 10, seed=0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_sequence(0.5, 0, seed=0)

    def test_p_column_equals_scalar_calls(self):
        ps = [0.1, 0.5, 0.5, 0.93]
        rows = bernoulli_sequence(np.array([[p] for p in ps]), 500, seed=4, stream=9)
        assert rows.shape == (4, 500) and rows.dtype == np.int8
        for p, row in zip(ps, rows):
            np.testing.assert_array_equal(row, bernoulli_sequence(p, 500, seed=4, stream=9))

    def test_stream_rng_is_pcg64(self):
        gen = sequence_rng(0, 3)
        assert isinstance(gen.bit_generator, np.random.PCG64)


class TestTheoreticalBounds:
    def test_reference_values(self):
        b = theoretical_bounds(0.5, 5.0)
        assert b.a_min == 4.0
        assert b.K == 0.5
        assert b.pair_slope_lb == 0.5

    def test_boundary_expansion(self):
        assert theoretical_bounds(0.5, 4.0).K == 0.0

    def test_skewed_probability(self):
        b = theoretical_bounds(0.1, 12.0)
        assert b.K == pytest.approx(2.0 * (12.0 * 0.09 - 1.0), abs=1e-12)
        assert b.K == pytest.approx(0.16, abs=1e-12)
        assert theoretical_bounds(0.9, 5.0).a_min == pytest.approx(1.0 / 0.09, rel=1e-12)

    def test_probability_domain(self):
        with pytest.raises(ValueError):
            theoretical_bounds(0.0, 5.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(p=1.2)
        with pytest.raises(ValueError):
            small_config(horizon=401)
        with pytest.raises(ValueError):
            small_config(n_sequences=0)
        with pytest.raises(ValueError):
            small_config(w=0.3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_expansion_rejected(self, bad):
        with pytest.raises(ValueError, match="expansion a must be finite and positive"):
            small_config(a=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_escape_threshold_rejected(self, bad):
        with pytest.raises(ValueError, match="escape_threshold"):
            small_config(escape_threshold=bad)

    def test_admissibility(self):
        assert small_config(a=5.0).admissible
        assert not small_config(a=4.0).admissible
        assert not small_config(a=3.0).admissible

    def test_inadmissible_configs_still_run(self):
        stats = monte_carlo(small_config(a=3.0, n_sequences=5, horizon=100))
        assert not stats.config.admissible
        assert 0.0 <= stats.escape_fraction <= 1.0


class TestRunIfs:
    def test_pairwise_gain_bounds(self):
        config = small_config(horizon=2000)
        run = run_ifs(config, stream=3)
        mixed = run.pair_gains[run.pair_mixed]
        unmixed = run.pair_gains[~run.pair_mixed]
        assert np.all(mixed >= config.a - 2.0)
        assert np.all(unmixed >= -2.0)

    def test_exact_pair_count_bound(self):
        config = small_config()
        for stream in range(10):
            run = run_ifs(config, stream=stream)
            m = config.pairs
            assert 0 <= run.k_m <= m
            assert run.delta_total >= config.a * run.k_m - 2.0 * m

    def test_pinned_ray_gives_exactly_minus_two_per_pair(self):
        config = small_config(horizon=100)
        run = run_ifs(config, start=CylPoint(0.0, Angle(0.0)), symbols=np.zeros(100, int))
        assert np.array_equal(run.pair_gains, np.full(50, -2.0))
        assert run.delta_total == -100.0
        assert run.k_m == 0

    def test_k_series_is_cumulative(self):
        run = run_ifs(small_config(), stream=1)
        np.testing.assert_array_equal(run.k_series, np.cumsum(run.pair_mixed))

    def test_symbol_length_checked(self):
        with pytest.raises(ValueError):
            run_ifs(small_config(horizon=10), symbols=np.zeros(4, int))

    def test_huge_start_keeps_every_gain(self):
        # Against log-radius 1e308 every gain rounds away, so the change is
        # summed on its own; the angle orbit does not depend on the radius.
        config = small_config(horizon=100)
        base = run_ifs(config, CylPoint(0.0, Angle(0.3)), stream=1)
        huge = run_ifs(config, CylPoint(1e308, Angle(0.3)), stream=1)
        assert huge.delta_total == base.delta_total > 0.0
        np.testing.assert_array_equal(huge.pair_gains, base.pair_gains)
        assert huge.trace.rs[0] == 1e308

    def test_trace_is_consistent(self):
        config = small_config(horizon=50)
        run = run_ifs(config, stream=2)
        assert run.trace.rs.shape == (51,)
        assert run.delta_total == pytest.approx(float(np.sum(run.pair_gains)), abs=1e-9)


class TestMonteCarlo:
    def test_replay_is_bitwise_identical(self):
        config = small_config()
        s1 = monte_carlo(config)
        s2 = monte_carlo(config)
        np.testing.assert_array_equal(s1.deltas, s2.deltas)
        np.testing.assert_array_equal(s1.k_counts, s2.k_counts)

    def test_matches_individual_runs(self):
        config = small_config(n_sequences=7)
        stats = monte_carlo(config)
        for stream in range(7):
            run = run_ifs(config, stream=stream)
            assert stats.deltas[stream] == run.delta_total
            assert stats.k_counts[stream] == run.k_m

    def test_mixed_fraction_tracks_2pq(self):
        config = small_config(p=0.3, horizon=2000, n_sequences=100)
        stats = monte_carlo(config)
        two_pq = 2.0 * 0.3 * 0.7
        tol = 3.0 * math.sqrt(two_pq * (1 - two_pq) / config.pairs)
        assert abs(stats.mean_mixed_fraction - two_pq) <= tol

    def test_escape_at_defaults(self):
        stats = monte_carlo(small_config(horizon=2000, n_sequences=50))
        assert stats.escape_fraction == 1.0

    def test_stats_serialization_keys(self):
        d = monte_carlo(small_config(n_sequences=3, horizon=50)).to_dict()
        assert {
            "n_sequences",
            "pairs_per_sequence",
            "mean_pair_gain",
            "mean_mixed_fraction",
            "escape_fraction",
            "slope_se",
            "slope_ci_low",
            "slope_ci_high",
        } == set(d)


@st.composite
def grids(draw):
    """Configs differing only in (p, a), from 1-3 values of p and 1-4 of a, in
    any order and with repeats, with a start on or off the invariant rays."""
    w = draw(st.floats(min_value=0.01, max_value=0.24))
    d = min(1.0 / math.pi, 0.5 - 2.0 * w) * draw(st.floats(min_value=0.01, max_value=0.99))
    shared = dict(
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        horizon=2 * draw(st.integers(min_value=1, max_value=40)),
        n_sequences=draw(st.integers(min_value=1, max_value=6)),
        w=w,
        d=d,
    )
    p_values = draw(st.lists(st.floats(min_value=0.01, max_value=0.99), min_size=1, max_size=3))
    a_values = draw(st.lists(st.floats(min_value=0.5, max_value=20.0), min_size=1, max_size=4))
    cells = draw(st.lists(st.sampled_from([(p, a) for p in p_values for a in a_values]), min_size=1, max_size=6))
    theta = draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(min_value=0.0, max_value=1.0, exclude_max=True)))
    r = draw(st.sampled_from([0.0, -3.5, 1e308]))
    return [IfsConfig(p=p, a=a, **shared) for p, a in cells], CylPoint(r, Angle(theta))


def assert_matches_run_ifs(configs, start, stats):
    assert [s.config for s in stats] == configs
    for config, cell in zip(configs, stats):
        for stream in range(config.n_sequences):
            run = run_ifs(config, start, stream=stream)
            assert cell.deltas[stream] == run.delta_total
            assert cell.k_counts[stream] == run.k_m


class TestMonteCarloGrid:
    @settings(max_examples=60, deadline=None)
    @given(grids())
    def test_every_stream_equals_run_ifs(self, grid):
        configs, start = grid
        assert_matches_run_ifs(configs, start, monte_carlo_grid(configs, start))

    @pytest.mark.parametrize("chunk", [1, 3 * 40, 3 * 40 + 1])
    def test_chunk_boundaries(self, chunk, monkeypatch):
        # 7 streams of 40 symbols: one stream per chunk, then chunks of 3, 3, 1.
        monkeypatch.setattr(ifs, "CHUNK_SYMBOLS", chunk)
        configs = [small_config(a=a, horizon=40, n_sequences=7) for a in (3.0, 5.0)]
        start = CylPoint(0.0, Angle(0.4))
        assert_matches_run_ifs(configs, start, monte_carlo_grid(configs, start))

    @pytest.mark.parametrize("chunk", [1, 3 * 3 * 40, 3 * 3 * 40 + 1])
    def test_chunk_boundaries_with_three_p(self, chunk, monkeypatch):
        # 7 streams of 40 symbols under 3 values of p, 21 lanes in all: one
        # stream (3 lanes) per chunk, then chunks of 3, 3, 1 streams.
        monkeypatch.setattr(ifs, "CHUNK_SYMBOLS", chunk)
        configs = [small_config(p=p, a=a, horizon=40, n_sequences=7) for p in (0.2, 0.5, 0.7) for a in (3.0, 5.0)]
        start = CylPoint(0.0, Angle(0.4))
        assert_matches_run_ifs(configs, start, monte_carlo_grid(configs, start))

    def test_accepts_configs_differing_in_p(self):
        configs = [small_config(a=5.0, horizon=60, n_sequences=6),
                   small_config(a=6.0, p=0.4, horizon=60, n_sequences=6)]
        assert_matches_run_ifs(configs, ifs.DEFAULT_START, monte_carlo_grid(configs))

    def test_duplicate_values_give_identical_cells(self):
        cells = [(0.3, 5.0), (0.6, 5.0), (0.3, 5.0), (0.3, 7.0), (0.6, 5.0)]
        stats = monte_carlo_grid([small_config(p=p, a=a, horizon=60, n_sequences=8) for p, a in cells])
        for i, j in ((0, 2), (1, 4)):
            np.testing.assert_array_equal(stats[i].deltas, stats[j].deltas)
            np.testing.assert_array_equal(stats[i].k_counts, stats[j].k_counts)
        np.testing.assert_array_equal(stats[0].k_counts, stats[3].k_counts)

    @pytest.mark.parametrize(
        "field, value",
        [("seed", 1), ("horizon", 402), ("n_sequences", 99), ("w", 0.1), ("d", 0.2),
         ("escape_threshold", 50.0)],
    )
    def test_rejects_configs_differing_in_more_than_a(self, field, value):
        configs = [small_config(a=5.0), small_config(a=6.0, **{field: value})]
        with pytest.raises(ValueError, match="differ only in a"):
            monte_carlo_grid(configs)

    def test_rejects_an_empty_grid(self):
        with pytest.raises(ValueError):
            monte_carlo_grid([])

    def test_cells_share_no_writable_arrays(self):
        # Cells of one a, of one p, of mixed p, and a duplicate cell.
        cells = [(0.5, 5.0), (0.5, 6.0), (0.3, 5.0), (0.3, 6.0), (0.5, 5.0)]
        stats = monte_carlo_grid([small_config(p=p, a=a, n_sequences=5, horizon=20) for p, a in cells])
        for i, first in enumerate(stats):
            for second in stats[i + 1:]:
                for x, y in ((first.deltas, second.deltas), (first.k_counts, second.k_counts)):
                    assert not np.shares_memory(x, y)
        first, rest = stats[0], stats[1:]
        before = [(s.deltas.copy(), s.k_counts.copy()) for s in rest]
        first.deltas[:] = 0.0
        first.k_counts[:] = 0
        for s, (deltas, k_counts) in zip(rest, before):
            np.testing.assert_array_equal(s.deltas, deltas)
            np.testing.assert_array_equal(s.k_counts, k_counts)


class TestRecurrence:
    def test_satisfied_at_defaults(self):
        config = small_config()
        check = expectation_recurrence_check(config)
        assert check.bound == 0.5
        assert check.satisfied
        assert check.per_pair_gain >= check.bound

    def test_larger_expansion_raises_bound(self):
        config = small_config(a=8.0, n_sequences=50)
        check = expectation_recurrence_check(config)
        assert check.bound == pytest.approx(2.0, abs=1e-12)
        assert check.satisfied

    def test_reuses_precomputed_stats(self):
        config = small_config(n_sequences=10)
        stats = monte_carlo(config)
        check = expectation_recurrence_check(config, stats=stats)
        assert check.per_pair_gain == stats.mean_pair_gain
