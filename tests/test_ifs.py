import json
import math
import numbers
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from parrondo_maps import ifs
from parrondo_maps.circle import Angle, _is_count
from parrondo_maps.cli import main
from parrondo_maps.dynamics import iterate
from parrondo_maps.ifs import (
    IfsConfig,
    IfsStats,
    RecurrenceCheck,
    bernoulli_sequence,
    monte_carlo,
    monte_carlo_grid,
    run_ifs,
    theoretical_bounds,
)
from parrondo_maps.planar import CylPoint, apply_f0, apply_f1


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
        for bad in (0.0, 1.0, -0.2, 1.7, math.nan, np.array(1.0)):
            with pytest.raises(ValueError, match="strictly between 0 and 1"):
                bernoulli_sequence(bad, 10, seed=0)

    def test_empty_rejected(self):
        # The length is a count: a bool or a float is refused too.
        for bad in (0, -3, True, 2.5):
            with pytest.raises(ValueError, match=f"sequence length must be a positive integer, got {bad}"):
                bernoulli_sequence(0.5, bad, seed=0)

    @pytest.mark.parametrize("name", ["seed", "stream"])
    @pytest.mark.parametrize("bad", [-1, True, False, 2.5])
    def test_seed_and_stream_must_be_non_negative_integers(self, name, bad):
        # A bool would run seed or stream 0 or 1 unseen.
        with pytest.raises(ValueError, match=f"{name} must be a non-negative integer, got {bad}"):
            bernoulli_sequence(0.5, 4, **{"seed": 1, "stream": 0, name: bad})
        assert bernoulli_sequence(0.5, 4, np.int64(1), np.uint8(2)).shape == (4,)

    @pytest.mark.parametrize("p, n", [
        ([0.3, 0.7], 2), ([0.3, 0.7], 3), ([[0.3, 0.7]], 2), ([[[0.5]]], 2), ([[0.3], [0.7]], 2), ([[0.5]], 2),
    ])
    def test_p_must_be_a_probability_or_a_column(self, p, n):
        # A row of probabilities would threshold position by position, and a
        # column would broadcast to a block of rows: each is refused, a column
        # of probabilities included.
        with pytest.raises(ValueError, match=re.escape(f"p must be a probability, got shape {np.shape(p)}")):
            bernoulli_sequence(p, n, seed=0)

    def test_stream_rng_is_pcg64(self):
        # Stream s is a PCG64 generator on child s of the root seed.
        for seed, stream, p in [(0, 3, 0.5), (20240, 0, 0.3), (7, 11, 0.93)]:
            gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))
            expected = (gen.random(500) >= p).astype(np.int8)
            np.testing.assert_array_equal(bernoulli_sequence(p, 500, seed, stream), expected)


def numpy_child(seed, stream):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def assert_words_are_numpy_children(seed, lo, hi, n=64):
    # The engine's derivation against numpy's own construction of each child:
    # the seed words, and the uniforms PCG64 draws from them.
    words = ifs._stream_words(seed, lo, hi)
    assert words.shape == (hi - lo, 4) and words.dtype == np.uint64
    for stream, row in zip(range(lo, hi), words):
        child = np.random.SeedSequence(seed, spawn_key=(stream,))
        assert row.tobytes() == child.generate_state(4, np.uint64).tobytes()
        drawn = np.random.Generator(np.random.PCG64(ifs._seed_words()(row))).random(n)
        assert drawn.tobytes() == numpy_child(seed, stream).random(n).tobytes()


# Roots of 1 to 7 uint32 words.
ORACLE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 1, 2**128 + 3, 2**200 + 7]


class TestStreamDerivation:
    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    @pytest.mark.parametrize("lo, hi", [
        (0, 2),
        (299, 300),
        (2**31, 2**31 + 1),
        # Keys from 2**32 on are two uint32 words: one range across the
        # change, and ranges wholly on either side of it.
        (2**32 - 2, 2**32 + 6),
        (2**32 - 1, 2**32),
        (2**32, 2**32 + 1),
        (2**32 + 5, 2**32 + 6),
    ])
    def test_words_are_numpy_children(self, seed, lo, hi):
        assert_words_are_numpy_children(seed, lo, hi)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**256),
        lo=st.one_of(st.integers(min_value=0, max_value=1000), st.integers(min_value=0, max_value=2**64 - 8)),
        width=st.integers(min_value=1, max_value=5),
    )
    def test_words_are_numpy_children_everywhere(self, seed, lo, width):
        assert_words_are_numpy_children(seed, lo, lo + width, n=8)

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_engine_symbols_are_numpy_draws(self, seed):
        # k_counts are the mixed pairs of each stream's own numpy draw, under
        # two values of p at once.
        configs = [IfsConfig(p=p, a=5.0, seed=seed, horizon=200, n_sequences=5) for p in (0.5, 0.8)]
        for cell in monte_carlo_grid(configs):
            for stream in range(5):
                symbols = (numpy_child(seed, stream).random(200) >= cell.config.p).astype(np.int8)
                assert cell.k_counts[stream] == np.count_nonzero(symbols[0::2] != symbols[1::2])


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_expansion_rejected(self, bad):
        # Else K would be NaN, or a negative expansion would be labelled inadmissible.
        with pytest.raises(ValueError, match="expansion a must be finite and positive"):
            theoretical_bounds(0.5, bad)

    @given(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.floats(0.0, exclude_min=True, allow_infinity=False),
    )
    @example(0.5, 1e308)
    def test_k_and_the_slope_bound_are_the_same_float(self, p, a):
        # Every positive finite a, those whose double overflows included:
        # a * pq <= a / 4, so K is finite.
        b = theoretical_bounds(p, a)
        assert b.K == b.pair_slope_lb
        assert math.isfinite(b.K)


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

    @pytest.mark.parametrize("bad", [-1, 1.5, True, False])
    def test_seed_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer, got {bad}"):
            small_config(seed=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_non_positive_expansion_rejected(self, bad):
        with pytest.raises(ValueError, match="expansion a must be finite and positive"):
            small_config(a=bad)

    @pytest.mark.parametrize("a", [0.25, 5e-324, np.float64(0.1)])
    def test_small_expansion_runs_with_no_overflow_warning(self, a):
        # The size bound divided the largest double by 2a, which overflows
        # below a = 1/2; the test settings make that warning an error.
        config = small_config(a=a, horizon=4, n_sequences=2)
        assert monte_carlo(config).deltas.shape == (2,)

    @pytest.mark.parametrize("overrides", [
        dict(n_sequences=10**400), dict(horizon=2 * 10**400), dict(n_sequences=10**400, a=np.float64(5.0)),
        dict(horizon=np.int64(2**32), n_sequences=np.int64(2**31), a=1e300),
    ], ids=["sequences", "horizon", "numpy-a", "numpy-counts"])
    def test_counts_past_the_size_bound_are_refused(self, overrides):
        # A numpy float bound raised OverflowError on an int past the largest
        # double, which the CLI printed as a traceback, and a product of numpy
        # integers wrapped past 2**63 to a negative count that passed.
        with pytest.raises(ValueError, match="too large"):
            small_config(**overrides)

    def test_size_bound_compares_the_exact_product(self):
        # The bound is a multiple of a large power of two, so a float near it
        # cannot tell it from the next product, 2 more: an even horizon makes
        # every product even.
        bound = int(sys.float_info.max / 2.0 / 5.0)
        assert small_config(horizon=2, n_sequences=bound // 2).n_sequences * 2 == bound
        with pytest.raises(ValueError, match="too large"):
            small_config(horizon=2, n_sequences=bound // 2 + 1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_escape_threshold_rejected(self, bad):
        with pytest.raises(ValueError, match="escape_threshold"):
            small_config(escape_threshold=bad)

    def test_admissibility(self):
        # A config's verdict is the label of its cell's bounds.  At
        # small_config's p = 1/2, K = 4e-12 clears the boundary band and
        # K = +-5e-13 does not.
        cells = [(5.0, "admissible"), (4.000000000008, "admissible"), (4.000000000001, "boundary"),
                 (4.0, "boundary"), (3.999999999999, "boundary"), (3.0, "inadmissible")]
        for a, label in cells:
            assert theoretical_bounds(0.5, a).label == label

    @pytest.mark.parametrize("field", ["horizon", "n_sequences"])
    def test_counts_must_be_integers(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an? .*integer.*, got 10.0"):
            small_config(**{field: 10.0})
        for bad in (True, False):
            with pytest.raises(ValueError, match=f"{field} must be an? .*integer.*, got {bad}"):
                small_config(**{field: bad})
        assert getattr(small_config(**{field: np.int64(10)}), field) == 10

    def test_admissibility_agrees_with_k_and_the_sweep_label(self):
        # a p (1 - p) rounds above 1 here while K = 2 (a (p (1 - p)) - 1) is 0.
        config = small_config(p=0.08, a=13.58695652173913)
        bounds = theoretical_bounds(config.p, config.a)
        assert bounds.K == 0.0
        assert bounds.label == "boundary"
        for p, a in [(0.5, 5.0), (0.5, 4.0), (0.5, 3.0), (0.1, 12.0), (0.9, 11.0)]:
            bounds = theoretical_bounds(p, a)
            K = bounds.K
            assert bounds.label == ("boundary" if K == 0.0 else "admissible" if K > 0.0 else "inadmissible")

    def test_inadmissible_configs_still_run(self):
        stats = monte_carlo(small_config(a=3.0, n_sequences=5, horizon=100))
        assert theoretical_bounds(stats.config.p, stats.config.a).label == "inadmissible"
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
        run = run_ifs(config, start=Angle(0.0), symbols=np.zeros(100, int))
        assert np.array_equal(run.pair_gains, np.full(50, -2.0))
        assert run.delta_total == -100.0
        assert run.k_m == 0

    def test_k_m_counts_the_mixed_pairs(self):
        run = run_ifs(small_config(), stream=1)
        assert type(run.k_m) is int
        assert run.k_m == np.count_nonzero(run.pair_mixed)

    @pytest.mark.parametrize("bad", [-1, True, 2.5])
    def test_stream_must_be_a_non_negative_integer(self, bad):
        with pytest.raises(ValueError, match=f"stream must be a non-negative integer, got {bad}"):
            run_ifs(small_config(horizon=4), stream=bad)

    def test_symbol_length_checked(self):
        with pytest.raises(ValueError):
            run_ifs(small_config(horizon=10), symbols=np.zeros(4, int))

    @pytest.mark.parametrize(
        "symbols",
        [[2, 1, 0, 0], [-1, 1, 0, 0], [0, 0.7, 1, 1], np.zeros((4, 1), int)],
        ids=["two", "minus-one", "fraction", "column"],
    )
    def test_symbol_values_checked(self, symbols):
        # Another value would step one map while the pair bookkeeping counts
        # another symbol, or would be truncated to 0 or 1 unseen.
        with pytest.raises(ValueError):
            run_ifs(small_config(horizon=4), symbols=symbols)

    def test_trace_is_consistent(self):
        config = small_config(horizon=50)
        run = run_ifs(config, stream=2)
        assert run.symbols.shape == (50,)
        assert run.pair_mixed.shape == run.pair_gains.shape == (25,)
        assert run.delta_total == pytest.approx(float(np.sum(run.pair_gains)), abs=1e-9)


class TestPlanarMapsAgreeWithTheRecurrence:
    """``iterate`` over ``apply_f0``/``apply_f1`` and ``run_ifs`` over constant
    symbols compute the same orbit: the planar maps from ``CylPoint(0, theta)``
    and the angle recurrence from ``Angle(theta)``."""

    STEPS = 400

    @classmethod
    def _orbits(cls, apply, symbol):
        config = small_config(horizon=cls.STEPS, n_sequences=1)
        rp, ap = config.profiles()
        thetas = np.concatenate([np.random.default_rng(19).random(300), [0.0, 0.25, 0.5, 0.75]])
        for theta in thetas.tolist():
            trace = iterate(lambda p: apply(rp, ap, p), CylPoint(0.0, Angle(theta)), cls.STEPS)
            assert trace.n_steps == cls.STEPS
            yield trace, run_ifs(config, start=Angle(theta), symbols=np.full(cls.STEPS, symbol))

    def test_f0_matches_all_zero_symbols_bit_for_bit(self):
        # run_ifs reads the profile where the planar orbit does, bit for bit,
        # and sums the a-free fraction, a * sum(q) - n, where the orbit sums
        # a * q - 1 step by step: the two sums round apart, under 1e-12 here.
        rp = small_config().profiles()[0]
        a = rp.a
        for trace, run in self._orbits(apply_f0, 0):
            q = rp.slow_arc_fraction(trace.thetas[:-1])
            assert run.delta_total == a * np.cumsum(q)[-1] - self.STEPS
            assert np.array_equal(run.pair_gains, a * (q[0::2] + q[1::2]) - 2.0)
            assert abs(trace.rs[-1] - run.delta_total) <= 1e-9

    def test_f1_matches_all_one_symbols_to_rounding(self):
        # apply_f1 reads the profiles at (theta + 1/2) % 1.  run_ifs reads the
        # slow arc at theta + 1/2 and the drift at theta through the half-turn
        # identity, d/2 + (d/2) cos 2 pi theta: each step's drift is within a
        # few ulps of d of apply_f1's, and the gains agree within 3e-11 here.
        for trace, run in self._orbits(apply_f1, 1):
            assert abs(trace.rs[-1] - run.delta_total) <= 1e-9


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

    def test_stats_serialization_keys(self, tmp_path):
        out = tmp_path / "stats.json"
        assert main(["ifs", "--seed", "20240", "--horizon", "50", "--sequences", "3", "--out", str(out)]) == 0
        assert {
            "n_sequences",
            "pairs_per_sequence",
            "mean_pair_gain",
            "mean_mixed_fraction",
            "escape_fraction",
            "slope_se",
            "slope_ci_low",
            "slope_ci_high",
        } == set(json.loads(out.read_text())["stats"])


@st.composite
def grids(draw):
    """Configs differing only in (p, a), from 1-3 values of p and 1-4 of a, in
    any order and with repeats, with a start angle on or off the invariant rays."""
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
    return [IfsConfig(p=p, a=a, **shared) for p, a in cells], Angle(theta)


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

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=0.01, max_value=0.99),
        a_values=st.lists(st.floats(min_value=0.0, max_value=20.0, exclude_min=True), min_size=2, max_size=5),
        seed=st.integers(min_value=0, max_value=2**32),
        pairs=st.integers(min_value=1, max_value=40),
        n_sequences=st.integers(min_value=1, max_value=6),
    )
    @example(p=0.5, a_values=[5e-324, 1.0, 4.0, 20.0], seed=11, pairs=40, n_sequences=6)
    def test_a_row_is_non_decreasing_in_a(self, p, a_values, seed, pairs, n_sequences):
        # Every gain is a S - horizon with the a-free S >= 0, and rounding is
        # monotone, so along a row of one p each stream's gain, the mean and
        # the escape fraction never fall as a grows, tiny a included.
        configs = [small_config(p=p, a=a, seed=seed, horizon=2 * pairs, n_sequences=n_sequences)
                   for a in sorted(a_values)]
        row = monte_carlo_grid(configs)
        for low, high in zip(row, row[1:]):
            assert np.all(low.deltas <= high.deltas)
            assert low.mean_pair_gain <= high.mean_pair_gain
            assert low.escape_fraction <= high.escape_fraction

    @pytest.mark.parametrize("chunk", [1, 3 * 40, 3 * 40 + 1])
    def test_chunk_boundaries(self, chunk, monkeypatch):
        # 7 streams of 40 symbols: one stream per chunk, then chunks of 3, 3, 1.
        monkeypatch.setattr(ifs, "CHUNK_SYMBOLS", chunk)
        configs = [small_config(a=a, horizon=40, n_sequences=7) for a in (3.0, 5.0)]
        start = Angle(0.4)
        assert_matches_run_ifs(configs, start, monte_carlo_grid(configs, start))

    @pytest.mark.parametrize("chunk", [1, 3 * 3 * 40, 3 * 3 * 40 + 1])
    def test_chunk_boundaries_with_three_p(self, chunk, monkeypatch):
        # 7 streams of 40 symbols under 3 values of p, 21 lanes in all: one
        # stream (3 lanes) per chunk, then chunks of 3, 3, 1 streams.
        monkeypatch.setattr(ifs, "CHUNK_SYMBOLS", chunk)
        configs = [small_config(p=p, a=a, horizon=40, n_sequences=7) for p in (0.2, 0.5, 0.7) for a in (3.0, 5.0)]
        start = Angle(0.4)
        assert_matches_run_ifs(configs, start, monte_carlo_grid(configs, start))

    @staticmethod
    def _block_reads(monkeypatch, budget, a_values):
        """The angles and the ``out`` of each ``slow_arc_fraction`` call on 7
        streams of 40 symbols under 3 values of p, with blocks of ``budget``
        angles; the cells must still equal their ``run_ifs``."""
        monkeypatch.setattr(ifs, "GAIN_CELLS", budget)
        seen = []
        fraction = ifs.RadialProfile.slow_arc_fraction
        monkeypatch.setattr(ifs.RadialProfile, "slow_arc_fraction",
                            lambda rp, t, out=None: seen.append((t, out)) or fraction(rp, t, out=out))
        configs = [small_config(p=p, a=a, horizon=40, n_sequences=7) for p in (0.2, 0.5, 0.7) for a in a_values]
        start = Angle(0.4)
        stats = monte_carlo_grid(configs, start)
        monkeypatch.undo()
        assert_matches_run_ifs(configs, start, stats)
        return seen

    @classmethod
    def _block_rows(cls, monkeypatch, budget, a_values):
        """The steps each ``slow_arc_fraction`` call reads, as ``_block_reads``."""
        return [len(t) for t, _ in cls._block_reads(monkeypatch, budget, a_values)]

    @pytest.mark.parametrize("budget, rows", [
        (1, [1] * 40),
        (3 * 21, [3] * 13 + [1]),
        (41 * 21, [40]),
    ])
    def test_block_boundaries(self, budget, rows, monkeypatch):
        # 7 streams under 3 values of p are 21 lanes, so 21 angles a step:
        # one step per block, blocks of 3 steps with a last block of 1, and
        # one block longer than the 40-step horizon.
        assert self._block_rows(monkeypatch, budget, (3.0, 5.0)) == rows

    @pytest.mark.parametrize("a_values", [(5.0,), (3.0, 5.0), (3.0, 5.0, 9.0)])
    def test_block_length_does_not_depend_on_the_a_column(self, a_values, monkeypatch):
        # A block is sized by the angles it holds: 63 angles are 3 steps of
        # 21 lanes, whatever the number of a values.
        assert self._block_rows(monkeypatch, 3 * 21, a_values) == [3] * 13 + [1]

    @pytest.mark.parametrize("chunk, chunks", [(ifs.CHUNK_SYMBOLS, 1), (3 * 3 * 40, 3)])
    def test_each_block_reads_into_one_held_buffer(self, chunk, chunks, monkeypatch):
        # 14 blocks of 3 steps (the last of 1) in one chunk of 7 streams, then
        # chunks of 3, 3 and 1 streams: every read of a chunk writes through
        # a view of the one fraction buffer that chunk holds.
        def owner(x):
            return x if x.base is None else x.base

        monkeypatch.setattr(ifs, "CHUNK_SYMBOLS", chunk)
        reads = self._block_reads(monkeypatch, 3 * 21, (3.0, 5.0))
        assert all(isinstance(out, np.ndarray) for _, out in reads)
        # The block's angles are held per chunk too, so they name the chunk.
        held = {}
        for t, out in reads:
            assert owner(out) is held.setdefault(id(owner(t)), owner(out))
        assert len(held) == chunks

    @pytest.mark.parametrize("chunk, chunks", [(ifs.CHUNK_SYMBOLS, 1), (3 * 3 * 40, 3)])
    def test_the_engine_calls_no_class_drift(self, chunk, chunks, monkeypatch):
        # A tracer wraps delta_theta on the class before the run, as
        # perfbench's does: the engine reads the drift through the half-turn
        # identity, with no profile call per step, through the 21 lanes of 7
        # streams under 3 values of p, in one chunk or in chunks of 3, 3 and 1
        # streams (one seeding each); every stream still equals its run_ifs.
        monkeypatch.setattr(ifs, "CHUNK_SYMBOLS", chunk)
        calls, seeded = [], []
        drift, words = ifs.AngularProfile.delta_theta, ifs._stream_words
        monkeypatch.setattr(ifs.AngularProfile, "delta_theta", lambda ap, theta: calls.append(theta) or drift(ap, theta))
        monkeypatch.setattr(ifs, "_stream_words", lambda *args: seeded.append(args) or words(*args))
        configs = [small_config(p=p, horizon=40, n_sequences=7) for p in (0.2, 0.5, 0.7)]
        start = Angle(0.4)
        stats = monte_carlo_grid(configs, start)
        monkeypatch.undo()
        assert calls == [] and len(seeded) == chunks
        assert_matches_run_ifs(configs, start, stats)

    @pytest.mark.parametrize("n_sequences, chunk", [(40, ifs.CHUNK_SYMBOLS), (400, 3 * 200 * 40)])
    def test_traced_peak_is_one_chunk_and_one_block(self, n_sequences, chunk, monkeypatch):
        # 16 values of a x 3 of p, then 10x the sequences in 10 chunks of 40
        # streams.  Each chunk holds its block's angles and one a-free read of
        # at most GAIN_CELLS fractions, and the read's distance takes one more
        # such temporary; the run keeps one a-free sum per (p, stream), so no
        # term grows with the number of sequences or of values of a.  The
        # bound is not the peak of every shape: counting k_counts holds a bool
        # temporary of half the chunk, and each chunk holds one 112 B view
        # per row of its block's angles and read.  At these shapes the bound's
        # slack covers both, but at 300 x 2000 the peak is 1.00 MB (0.60 MB of
        # symbols, 0.30 MB of that temporary) and at one lane x 20 000 steps
        # it is 2.41 MB, mostly 2 x 8 193 row views (ROADMAP item 9).
        monkeypatch.setattr(ifs, "CHUNK_SYMBOLS", chunk)
        n_a, n_p, horizon = 16, 3, 200
        configs = [small_config(p=p, a=4.0 + 0.5 * i, horizon=horizon, n_sequences=n_sequences)
                   for p in (0.3, 0.5, 0.7) for i in range(n_a)]
        # The first draw in a process imports numpy.random, about 0.5 MB.
        monte_carlo_grid(configs[:1])
        tracemalloc.start()
        try:
            stats = monte_carlo_grid(configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        chunk_bytes = min(chunk, n_p * horizon * n_sequences)
        # The grid's sums and k_counts, each cell's deltas and k_counts, and
        # 1 KiB a cell for its objects; no term grows with a x p x streams.
        outputs = 2 * n_p * n_sequences * 8 + len(stats) * (16 * n_sequences + 1024)
        assert peak < chunk_bytes + 3 * ifs.GAIN_CELLS * 8 + outputs

    def test_traced_peak_holds_one_chunk_at_a_time(self, monkeypatch):
        # One chunk of 300 streams x 2000 steps, then two.  Every view of the
        # first chunk, the loops' last ones included, is dropped before the
        # second allocates, so the peak grows only by the outputs of 300 more
        # streams; holding the first chunk's symbols read 0.75 MB more.
        monkeypatch.setattr(ifs, "CHUNK_SYMBOLS", 2000 * 300)
        monte_carlo_grid([small_config(horizon=20, n_sequences=2)])
        peaks = {}
        for n in (300, 600):
            tracemalloc.start()
            try:
                monte_carlo_grid([small_config(horizon=2000, n_sequences=n)])
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # Each more stream adds a sum and a count, and the cell a delta and
        # a count; the slack is less than one block's angles (67 KB here).
        assert peaks[600] - peaks[300] < 300 * 4 * 8 + 32 * 1024, peaks

    def test_steady_calls_take_few_minor_page_faults(self):
        # 9 values of p x 64 of a x 50 x 400: one a-free read of 64 KiB, held
        # for the call, where a read of every a allocated every block made
        # about 2000 minor faults a call.  The bound leaves room for the
        # outputs' heap.
        resource = pytest.importorskip("resource")
        if not hasattr(resource.getrusage(resource.RUSAGE_SELF), "ru_minflt"):
            pytest.skip("getrusage reports no minor page faults here")
        configs = [small_config(p=p, a=a, horizon=400, n_sequences=50)
                   for p in np.linspace(0.1, 0.9, 9).tolist() for a in np.linspace(4.0, 20.0, 64).tolist()]
        for _ in range(2):
            monte_carlo_grid(configs)
        faults = []
        for _ in range(5):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            monte_carlo_grid(configs)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert sorted(faults)[2] < 200, faults

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


class TestHalfTurnDrift:
    """The engines read f1's drift at theta through the half-turn identity,
    ``d/2 + g cos 2 pi theta`` with ``g = +d/2`` (f0: ``-d/2``), where the
    literal construction reads ``delta_theta((theta + 1/2) % 1)``."""

    # Streams 0-7 of root seed 3 at p = 1/2 open with both maps.
    SEED, STREAMS = 3, 8

    @settings(max_examples=100, deadline=None)
    @given(
        d=st.one_of(
            st.floats(min_value=0.0, max_value=1.0 / math.pi, exclude_min=True, exclude_max=True),
            st.integers(min_value=2, max_value=60).map(lambda k: 2.0**-k),
        ),
        theta=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    @example(d=0.25, theta=0.5).via("the default drift at f1's fixed angle")
    @example(d=0.25, theta=math.nextafter(0.5, 0.0)).via("an f1 shift that rounds")
    def test_the_engine_step_is_the_identity_within_ulps_of_d(self, d, theta):
        config = IfsConfig(p=0.5, a=5.0, seed=self.SEED, horizon=2, n_sequences=self.STREAMS, w=0.05, d=d)
        ap = config.profiles()[1]
        half_d = 0.5 * d
        cos = math.cos(ifs.TWO_PI * theta)
        drift = {0: half_d + -half_d * cos, 1: half_d + half_d * cos}
        # Rounding the shift, 2 pi t and each of four operations per form:
        # under 5 units of d 2**-52 (3.75 seen), so under 10 ulps of d.
        assert abs(drift[1] - ap.delta_theta((theta + 0.5) % 1.0)) <= 10.0 * math.ulp(d)
        if math.frexp(half_d)[0] == 0.5 and half_d >= 2.0**-960:
            # Far from underflow g cos is exact, so d/2 + g cos rounds
            # d/2 (1 - cos) once, as (1 - cos) rounds.
            assert drift[0] == ap.delta_theta(theta)
        # The engine's block read holds each step's angle plus its half turn:
        # after one step every lane holds (theta + drift) % 1 for its first map.
        blocks = []
        with pytest.MonkeyPatch.context() as mp:
            fraction = ifs.RadialProfile.slow_arc_fraction
            mp.setattr(ifs.RadialProfile, "slow_arc_fraction",
                       lambda rp, t, out=None: blocks.append(t.copy()) or fraction(rp, t, out=out))
            monte_carlo_grid([config], Angle(theta))
        symbols = np.array([bernoulli_sequence(0.5, 2, self.SEED, s) for s in range(self.STREAMS)]).T
        assert set(symbols[0].tolist()) == {0, 1}
        expected = [[theta + 0.5 * s for s in symbols[0].tolist()],
                    [(theta + drift[s]) % 1.0 + 0.5 * u for s, u in zip(*symbols.tolist())]]
        assert len(blocks) == 1 and blocks[0].tobytes() == np.array(expected).tobytes()


class TestPairBoundHoldsUnderRounding:
    """The paper's bound Delta_2m >= a k_m - 2m with no rounding allowance.
    A mixed pair reads the slow-arc fraction q = 1.0 exactly at least once,
    every q is at least 0, and rounding is monotone, so the a-free sum S
    rounds to at least k_m and a S - 2m to at least a k_m - 2m."""

    @settings(max_examples=60, deadline=None)
    @given(
        p=st.floats(min_value=0.01, max_value=0.99),
        a_values=st.lists(st.floats(min_value=0.1, max_value=1e3), min_size=1, max_size=3),
        seed=st.integers(min_value=0, max_value=2**32),
        pairs=st.integers(min_value=1, max_value=100),
        n_sequences=st.integers(min_value=1, max_value=5),
    )
    @example(p=0.5, a_values=[3.0, 4.0, 5.0], seed=0, pairs=100, n_sequences=5)
    def test_every_delta_and_mixed_pair_meets_the_bound(self, p, a_values, seed, pairs, n_sequences):
        configs = [IfsConfig(p=p, a=a, seed=seed, horizon=2 * pairs, n_sequences=n_sequences) for a in a_values]
        for config, stats in zip(configs, monte_carlo_grid(configs)):
            assert np.all(stats.deltas >= config.a * stats.k_counts - 2.0 * pairs)
            for stream in range(n_sequences):
                run = run_ifs(config, stream=stream)
                assert np.all(run.pair_gains[run.pair_mixed] >= config.a - 2.0)
                assert np.all(run.pair_gains >= -2.0)


class TestStartMustBeAnAngle:
    @pytest.mark.parametrize("run", [
        lambda start: run_ifs(small_config(horizon=4), start),
        lambda start: monte_carlo(small_config(horizon=4, n_sequences=2), start),
        lambda start: monte_carlo_grid([small_config(a=a, horizon=4, n_sequences=2) for a in (5.0, 6.0)], start),
    ], ids=["run_ifs", "monte_carlo", "monte_carlo_grid"])
    @pytest.mark.parametrize("start, name", [
        (0.25, "float"), (np.float64(0.25), "float64"), (None, "NoneType"), ("0.25", "str"),
    ])
    def test_refused_before_any_symbol_is_drawn(self, run, start, name, monkeypatch):
        # A bare number of turns is refused, naming its type, before any work:
        # run_ifs draws through _uniforms, the engine seeds through _stream_words.
        drawn = []
        monkeypatch.setattr(ifs, "_uniforms", lambda *args: drawn.append(args))
        monkeypatch.setattr(ifs, "_stream_words", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match=f"start must be an Angle, got {name}$"):
            run(start)
        assert drawn == []


class TestRecurrence:
    def test_satisfied_at_defaults(self):
        check = monte_carlo(small_config()).recurrence
        assert check.bound == 0.5
        assert check.satisfied
        assert check.per_pair_gain >= check.bound

    def test_larger_expansion_raises_bound(self):
        check = monte_carlo(small_config(a=8.0, n_sequences=50)).recurrence
        assert check.bound == pytest.approx(2.0, abs=1e-12)
        assert check.satisfied

    def test_reuses_precomputed_stats(self):
        config = small_config(n_sequences=10)
        stats = monte_carlo(config)
        check = stats.recurrence
        assert check.per_pair_gain == stats.mean_pair_gain
        assert check.stderr == stats.slope_se
        assert check.bound == theoretical_bounds(config.p, config.a).K

    def test_satisfied_is_decided_within_three_standard_errors(self):
        # K = 2 at a = 8; the stats are written by hand, so the slopes are exact.
        config = small_config(a=8.0, horizon=4, n_sequences=4)
        for slopes, satisfied in [([0.0, 0.0, 0.0, 0.0], False), ([0.0, 4.0, 0.0, 4.0], True)]:
            stats = IfsStats(config=config, deltas=2.0 * np.array(slopes), k_counts=np.zeros(4, dtype=np.int64))
            check = stats.recurrence
            assert check == RecurrenceCheck(stats.mean_pair_gain, 2.0, stats.slope_se, satisfied)

    def test_one_sequence_has_no_spread_and_passes(self):
        stats = IfsStats(config=small_config(n_sequences=1), deltas=np.array([-1.0]), k_counts=np.zeros(1))
        assert stats.recurrence.stderr == math.inf
        assert stats.recurrence.satisfied


def _bits(x: float) -> str:
    return "nan" if math.isnan(x) else x.hex()


class _Count(int):
    pass


class TestCheapForms:
    """The aggregates and the count check against the numpy and ABC forms they replace."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_aggregates_are_np_means_bit_for_bit(self, data):
        # A 1-D array, or each row view of a 2-D one; any float, inf and NaN included.
        shape = data.draw(st.one_of(st.tuples(st.integers(1, 500)), st.tuples(st.integers(1, 6), st.integers(1, 80))))
        pairs = data.draw(st.sampled_from([1, 200, 3**20]))
        deltas = data.draw(hnp.arrays(np.float64, shape, elements=st.floats()))
        k_counts = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, pairs)))
        threshold = data.draw(st.floats(allow_nan=False, allow_infinity=False))
        config = small_config(horizon=2 * pairs, escape_threshold=threshold)
        rows = zip(deltas, k_counts) if deltas.ndim == 2 else [(deltas, k_counts)]
        with np.errstate(invalid="ignore", over="ignore"):
            for d, k in rows:
                stats = IfsStats(config, d, k)
                got = (stats.mean_pair_gain, stats.mean_mixed_fraction, stats.escape_fraction)
                expected = (float(np.mean(d)) / pairs, float(np.mean(k / pairs)), float(np.mean(d > threshold)))
                assert [_bits(x) for x in got] == [_bits(x) for x in expected]

    @given(
        st.one_of(
            st.integers(), st.booleans(), st.booleans().map(np.bool_), st.integers(-2**63, 2**63 - 1).map(np.int64),
            st.integers(0, 255).map(np.uint8), st.floats(), st.integers().map(_Count),
        ),
        st.integers(-3, 3),
    )
    def test_is_count_is_the_abc_form(self, x, least):
        abc_form = isinstance(x, numbers.Integral) and not isinstance(x, bool) and x >= least
        assert bool(_is_count(x, least)) == bool(abc_form)
