import math

import numpy as np
import pytest

from seqpred.distances import distances_batch, instant_distances, ratio_term, ratio_term_batch

from oracles import distance_terms, left_to_right_row_sums


def naive_distances(y, z):
    """Straightforward per-term summation oracle."""
    a = s = h = d = b = 0.0
    for yi, zi in zip(y, z):
        a += abs(yi - zi)
        s += (yi - zi) ** 2
        h += (math.sqrt(yi) - math.sqrt(zi)) ** 2
        if yi > 0.0:
            if zi == 0.0:
                d = b = math.inf
                continue
            d += yi * math.log(yi / zi)
            b += yi * abs(math.log(yi / zi))
    return a, s, h, d, b


def random_pair(rng, n):
    y = rng.random(n) + 1e-3
    z = rng.random(n) + 1e-3
    return y / y.sum(), z / z.sum()


class TestHandValues:
    def test_identical_vectors(self):
        d = instant_distances([0.4, 0.6], [0.4, 0.6])
        assert (d.absolute, d.square, d.hellinger, d.kl, d.abs_divergence) == (0, 0, 0, 0, 0)
        assert ratio_term([0.4, 0.6], [0.4, 0.6]) == 0.0

    def test_half_vs_quarter(self):
        d = instant_distances([0.5, 0.5], [0.25, 0.75])
        assert d.absolute == pytest.approx(0.5, abs=1e-15)
        assert d.square == pytest.approx(0.125, abs=1e-15)
        assert d.hellinger == pytest.approx(
            (math.sqrt(0.5) - 0.5) ** 2 + (math.sqrt(0.5) - math.sqrt(0.75)) ** 2, abs=1e-15)
        assert d.kl == pytest.approx(0.5 * math.log(4 / 3), abs=1e-12)
        assert d.abs_divergence == pytest.approx(0.5 * math.log(3), abs=1e-12)
        # full support: ratio term equals the Hellinger distance here
        assert ratio_term([0.5, 0.5], [0.25, 0.75]) == pytest.approx(d.hellinger, abs=1e-15)

    def test_point_mass_true_vector(self):
        d = instant_distances([1.0, 0.0], [0.5, 0.5])
        assert d.absolute == pytest.approx(1.0, abs=1e-15)
        assert d.square == pytest.approx(0.5, abs=1e-15)
        assert d.hellinger == pytest.approx((1 - math.sqrt(0.5)) ** 2 + 0.5, abs=1e-15)
        # zero-true-probability terms are skipped exactly
        assert d.kl == pytest.approx(math.log(2), abs=1e-15)
        assert d.abs_divergence == pytest.approx(math.log(2), abs=1e-15)
        rt = ratio_term([1.0, 0.0], [0.5, 0.5])
        assert rt == pytest.approx((1 - math.sqrt(0.5)) ** 2, abs=1e-15)
        assert rt < d.hellinger

    def test_matches_naive_summation(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            y, z = random_pair(rng, int(rng.integers(2, 7)))
            got = instant_distances(y, z)
            a, s, h, d, b = naive_distances(y, z)
            assert got.absolute == pytest.approx(a, rel=1e-12)
            assert got.square == pytest.approx(s, rel=1e-12)
            assert got.hellinger == pytest.approx(h, rel=1e-12)
            assert got.kl == pytest.approx(d, rel=1e-12, abs=1e-15)
            assert got.abs_divergence == pytest.approx(b, rel=1e-12, abs=1e-15)


class TestInequalityChain:
    def test_chain_on_random_pairs(self):
        # square <= kl, hellinger <= kl, absdiv - kl <= abs <= sqrt(2 kl)
        rng = np.random.default_rng(101)
        total = 0
        for n in (2, 3, 4, 5, 6):
            k = 2000
            y = rng.random((k, n)) + 1e-6
            z = rng.random((k, n)) + 1e-6
            y /= y.sum(axis=1, keepdims=True)
            z /= z.sum(axis=1, keepdims=True)
            d = distances_batch(y, z)
            r = ratio_term_batch(y, z)
            assert (d["kl"] - d["square"] >= -1e-12).all()
            assert (d["kl"] - d["hellinger"] >= -1e-12).all()
            assert (d["absolute"] - (d["abs_divergence"] - d["kl"]) >= -1e-12).all()
            assert (np.sqrt(2 * np.maximum(d["kl"], 0.0)) - d["absolute"] >= -1e-12).all()
            assert (d["hellinger"] - r >= -1e-12).all()
            total += k
        assert total == 10_000

    def test_batch_agrees_with_scalar(self):
        rng = np.random.default_rng(4)
        y, z = random_pair(rng, 4)
        batch = distances_batch(y[None, :], z[None, :])
        scalar = instant_distances(y, z)
        assert batch["absolute"][0] == scalar.absolute
        assert batch["kl"][0] == scalar.kl

    def test_binary_pinsker_specialization(self):
        # y ln(y/z) + (1-y) ln((1-y)/(1-z)) >= 2 (y-z)^2 on a dense grid
        grid = np.linspace(1e-4, 1 - 1e-4, 401)
        for y1 in grid[::8]:
            yv = np.array([1 - y1, y1])
            for z1 in grid:
                d = instant_distances(yv, [1 - z1, z1])
                assert d.kl >= 2 * (y1 - z1) ** 2 - 1e-12


class TestSymmetry:
    def test_first_three_are_symmetric(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            y, z = random_pair(rng, 3)
            fwd = instant_distances(y, z)
            rev = instant_distances(z, y)
            assert fwd.absolute == pytest.approx(rev.absolute, abs=1e-15)
            assert fwd.square == pytest.approx(rev.square, abs=1e-15)
            assert fwd.hellinger == pytest.approx(rev.hellinger, abs=1e-15)

    def test_kl_and_absdiv_are_not(self):
        y, z = [0.9, 0.1], [0.5, 0.5]
        fwd = instant_distances(y, z)
        rev = instant_distances(z, y)
        assert abs(fwd.kl - rev.kl) > 0.05
        assert abs(fwd.abs_divergence - rev.abs_divergence) > 0.05


class TestZeroHandling:
    def test_infinite_divergence_is_a_value_not_an_exception(self):
        d = instant_distances([0.5, 0.5], [1.0, 0.0])
        assert d.kl == math.inf
        assert d.abs_divergence == math.inf
        # the finite distances stay finite
        assert d.absolute == pytest.approx(1.0)
        assert math.isfinite(d.hellinger)

    def test_ratio_term_skips_zero_true_mass(self):
        assert ratio_term([0.0, 1.0], [0.5, 0.5]) == pytest.approx(
            (math.sqrt(0.5) - 1.0) ** 2, abs=1e-15)


class TestValidation:
    def test_unnormalized_inputs_rejected(self):
        with pytest.raises(ValueError):
            instant_distances([0.5, 0.4], [0.5, 0.5])
        with pytest.raises(ValueError):
            ratio_term([0.5, 0.5], [0.7, 0.5])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            instant_distances([1.1, -0.1], [0.5, 0.5])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            instant_distances([0.5, 0.5], [0.3, 0.3, 0.4])

    @pytest.mark.parametrize("func", [instant_distances, ratio_term], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("y, z, reason", [
        ([math.nan, math.nan], [0.5, 0.5], "finite"),
        ([0.5, 0.5], [math.nan, 1.0], "finite"),
        ([math.inf, 0.0], [0.5, 0.5], "finite"),
        ([1.0 + 1e-10, 0.0], [0.5, 0.5], r"\[0, 1\]"),
    ], ids=["nan-true", "nan-predicted", "inf-true", "entry-above-one"])
    def test_non_probability_vectors_rejected(self, func, y, z, reason):
        with pytest.raises(ValueError, match=reason):
            func(y, z)


class TestColumnSums:
    """Batch distances add their symbol terms left to right,
    ((t0 + t1) + t2) + ..., at every alphabet size; numpy's pairwise row sum
    gives other bits from 8 symbols on."""

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 16])
    def test_sums_match_explicit_left_to_right_adds(self, n):
        rng = np.random.default_rng(n)
        # terms spread over many magnitudes, so the order of the adds shows
        y = rng.random((60, n)) * 10.0 ** rng.uniform(-9, 0, (60, n))
        z = rng.random((60, n)) * 10.0 ** rng.uniform(-9, 0, (60, n))
        y[:10, 0] = 0.0            # outside the support of y
        z[10:15, n - 1] = 0.0      # kl and abs_divergence are infinite
        y /= y.sum(axis=1, keepdims=True)
        z /= z.sum(axis=1, keepdims=True)
        got = distances_batch(y, z)
        got["ratio_term"] = ratio_term_batch(y, z)
        for key, terms in distance_terms(y, z).items():
            want = left_to_right_row_sums(terms)
            assert [float(v).hex() for v in got[key]] == [v.hex() for v in want], key
