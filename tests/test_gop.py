import math

import numpy as np
import pytest

from proscore.corpus import PhoneAlignment, PhonePrior, PosteriorGram
from proscore.gop import (competition_sweep, conditional_score, gop_score,
                          segment_posterior, simulate_competition,
                          sweep_to_tsv)

from conftest import competition_posterior_oracle


def _pg(post):
    post = np.asarray(post, dtype=np.float64)
    table = tuple(f"p{i}" for i in range(post.shape[1]))
    return PosteriorGram("u", post, table)


def _uniform_pg(T, P):
    return _pg(np.full((T, P), 1.0 / P))


# ---------------------------------------------------------------------------
# segment_posterior


def test_segment_posterior_perfect():
    post = np.zeros((4, 3))
    post[:, 1] = 1.0
    assert segment_posterior(_pg(post), (1, 0, 4)) == 1.0


def test_segment_posterior_uniform():
    assert segment_posterior(_uniform_pg(6, 40), (0, 0, 6)) == pytest.approx(0.025)


def test_segment_posterior_mean():
    post = np.zeros((2, 2))
    post[:, 0] = [0.8, 0.6]
    post[:, 1] = [0.2, 0.4]
    assert segment_posterior(_pg(post), (0, 0, 2)) == pytest.approx(0.7)


def test_segment_posterior_empty_segment_errors():
    with pytest.raises(ValueError, match="empty segment"):
        segment_posterior(_uniform_pg(4, 2), (0, 2, 2))


def test_segment_posterior_floor():
    post = np.zeros((1, 2))
    post[0] = [1.0, 0.0]
    assert segment_posterior(_pg(post), (1, 0, 1)) == 1e-12


# ---------------------------------------------------------------------------
# gop_score


def test_gop_zero_for_perfect_posteriors():
    post = np.zeros((6, 3))
    post[:3, 0] = 1.0
    post[3:, 2] = 1.0
    al = PhoneAlignment("u", [(0, 0, 3), (2, 3, 6)])
    assert gop_score(_pg(post), al) == 0.0


def test_gop_uniform_rows():
    al = PhoneAlignment("u", [(0, 0, 3), (1, 3, 8), (2, 8, 10)])
    assert gop_score(_uniform_pg(10, 40), al) == \
        pytest.approx(math.log(1.0 / 40.0))


def test_gop_two_segments():
    post = np.zeros((4, 2))
    post[:2, 0] = 0.7
    post[:2, 1] = 0.3
    post[2:, 1] = 0.5
    post[2:, 0] = 0.5
    al = PhoneAlignment("u", [(0, 0, 2), (1, 2, 4)])
    assert gop_score(_pg(post), al) == \
        pytest.approx((math.log(0.7) + math.log(0.5)) / 2)


def test_gop_nonpositive_and_permutation_invariant():
    rng = np.random.default_rng(5)
    post = rng.dirichlet(np.ones(6), size=12)
    al = PhoneAlignment("u", [(0, 0, 4), (3, 4, 7), (5, 7, 12)])
    gop = gop_score(_pg(post), al)
    assert gop <= 0.0
    # the segment log-posteriors summed in alignment order
    assert gop == sum(math.log(segment_posterior(_pg(post), seg))
                      for seg in al.segments) / al.num_segments
    # and in another order
    reordered = sorted(math.log(segment_posterior(_pg(post), seg))
                       for seg in al.segments)
    assert gop == pytest.approx(sum(reordered) / len(reordered))


def test_gop_mean_of_log_mode():
    post = np.zeros((2, 2))
    post[:, 0] = [0.8, 0.6]
    post[:, 1] = [0.2, 0.4]
    al = PhoneAlignment("u", [(0, 0, 2)])
    assert gop_score(_pg(post), al, mode="mean-of-log") == \
        pytest.approx((math.log(0.8) + math.log(0.6)) / 2)
    with pytest.raises(ValueError, match="unknown GOP mode"):
        gop_score(_pg(post), al, mode="median")


def test_gop_mismatched_utterance_errors():
    al = PhoneAlignment("other", [(0, 0, 2)])
    with pytest.raises(ValueError, match="utterance mismatch"):
        gop_score(_uniform_pg(4, 2), al)


# ---------------------------------------------------------------------------
# conditional_score


def test_conditional_decomposition_identity():
    rng = np.random.default_rng(9)
    P, T = 8, 15
    post = rng.dirichlet(np.ones(P), size=T)
    pg = _pg(post)
    al = PhoneAlignment("u", [(1, 0, 5), (4, 5, 9), (7, 9, 15)])
    marg = rng.standard_normal(T)
    prior = PhonePrior.uniform(P)
    cond = conditional_score(pg, marg, prior, al)
    gop = gop_score(pg, al)
    seg_marg = np.mean([marg[s:e].mean() for _, s, e in al.segments])
    assert cond == pytest.approx(gop + seg_marg + math.log(P), abs=1e-12)


def test_conditional_zero_marginal_uniform_prior():
    pg = _uniform_pg(6, 10)
    al = PhoneAlignment("u", [(0, 0, 3), (2, 3, 6)])
    cond = conditional_score(pg, np.zeros(6), PhonePrior.uniform(10), al)
    gop = gop_score(pg, al)
    assert cond - gop == pytest.approx(math.log(10))


def test_conditional_single_segment_value():
    post = np.zeros((1, 40))
    post[0, 3] = 0.7
    post[0, 0] = 0.3
    pg = _pg(post)
    al = PhoneAlignment("u", [(3, 0, 1)])
    cond = conditional_score(pg, np.array([-2.0]), PhonePrior.uniform(40), al)
    assert cond == pytest.approx(math.log(0.7) - 2.0 + math.log(40))
    assert cond == pytest.approx(1.3323, abs=5e-4)


def test_conditional_dimension_mismatch():
    pg = _uniform_pg(4, 5)
    al = PhoneAlignment("u", [(0, 0, 4)])
    with pytest.raises(ValueError):
        conditional_score(pg, np.zeros(3), PhonePrior.uniform(5), al)


# ---------------------------------------------------------------------------
# phone competition


def test_competition_reference_points():
    assert simulate_competition(1.0, 0.0).posterior == pytest.approx(
        0.731059, abs=1e-6)
    assert simulate_competition(1.0, 0.5).posterior == pytest.approx(
        0.880797, abs=1e-6)


def test_competition_small_a_limit():
    assert simulate_competition(1e-9, 0.0).posterior == pytest.approx(0.5)


def test_competition_rejects_nonpositive_a():
    with pytest.raises(ValueError):
        simulate_competition(0.0, 0.1)
    with pytest.raises(ValueError):
        simulate_competition(-1.0, 0.1)


def test_competition_matches_density_oracle():
    rng = np.random.default_rng(17)
    a = rng.uniform(0.01, 3.0, size=200)
    delta = rng.uniform(-2.0, 2.0, size=200)
    for ai, di in zip(a, delta):
        expected = competition_posterior_oracle(ai, di)
        assert abs(simulate_competition(ai, di).posterior - expected) < 1e-10


def test_competition_sweep_monotone_and_tsv():
    deltas = (-0.5, 0.0, 0.5)
    points = competition_sweep(1.0, deltas)
    posts = [p.posterior for p in points]
    np.testing.assert_allclose(posts, [0.5, 0.7311, 0.8808], atol=1e-4)
    assert posts == sorted(posts)
    tsv = sweep_to_tsv(points)
    assert tsv.startswith("a\tdelta\tposterior\n")
    assert len(tsv.strip().split("\n")) == 4
    assert sweep_to_tsv([]) == "a\tdelta\tposterior\n"
