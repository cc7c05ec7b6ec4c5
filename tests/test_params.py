import math

import numpy as np
import pytest

from memoctrl import (Box, capacity_limit, cell_capacity_oracle, make_params,
                      sphere_area)


def test_sphere_area_known_values():
    assert sphere_area(2) == pytest.approx(2 * math.pi)
    assert sphere_area(3) == pytest.approx(4 * math.pi)
    assert sphere_area(4) == pytest.approx(2 * math.pi ** 2)
    assert sphere_area(5) == pytest.approx(8 * math.pi ** 2 / 3)
    assert sphere_area(6) == pytest.approx(math.pi ** 3)


def test_sphere_area_matches_gamma():
    for n in range(3, 12):
        assert sphere_area(n) == pytest.approx(
            2 * math.pi ** (n / 2) / math.gamma(n / 2), rel=1e-14)


def test_make_params_examples():
    p = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    assert p.Bn == pytest.approx(1.0)
    assert p.mu == pytest.approx(2.0)
    q = make_params(n=4, C0=2.0, N=0.5, T=1.0)
    assert q.Bn == pytest.approx(1.0)
    assert q.mu == pytest.approx(3.0)


def test_An_equals_4pi_for_n3_unit_scale():
    p = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    assert p.An == pytest.approx(4 * math.pi, rel=1e-12)


def test_exact_constant_relations():
    for n in (3, 4, 5, 7):
        for C0 in (0.5, 1.0, 2.0):
            for N in (0.25, 1.0, 10.0):
                p = make_params(n=n, C0=C0, N=N, T=2.0)
                assert p.Bn * p.C0 == pytest.approx(n - 2, rel=1e-15)
                assert p.mu - p.Bn == pytest.approx(1.0 / N, rel=1e-14)


def test_rejections():
    with pytest.raises(ValueError):
        make_params(n=2, C0=1.0, N=1.0, T=1.0)
    with pytest.raises(ValueError):
        make_params(n=3, C0=-1.0, N=1.0, T=1.0)
    with pytest.raises(ValueError):
        make_params(n=3, C0=1.0, N=0.0, T=1.0)
    with pytest.raises(ValueError):
        make_params(n=3, C0=1.0, N=1.0, T=-2.0)
    with pytest.raises(ValueError):
        make_params(n=3, C0=1.0, N=1.0, T=1.0,
                    domain_box=Box((0.0,), (1.0,)),
                    omega_box=Box((0.5,), (1.0,)))  # touches the boundary
    with pytest.raises(ValueError):
        make_params(n=3, C0=1.0, N=1.0, T=1.0, sim_dim=4)


def test_capacity_oracle_single_eps_close_to_4pi():
    (value,) = cell_capacity_oracle(3, 1.0, [1e-3])
    assert value == pytest.approx(4 * math.pi, rel=0.02)


def test_capacity_oracle_extrapolates_to_4pi():
    limit = capacity_limit(3, 1.0)
    assert limit == pytest.approx(4 * math.pi, rel=1e-6)


def test_capacity_oracle_rejects_collapsed_annulus():
    # C0 eps^3 >= eps/4  <=>  eps^2 >= 1/(4 C0)
    with pytest.raises(ValueError):
        cell_capacity_oracle(3, 100.0, [0.9])
    with pytest.raises(ValueError):
        cell_capacity_oracle(3, 1.0, [1.5])


def test_capacity_vanishes_with_particle_scale():
    values = [cell_capacity_oracle(3, C0, [1e-2])[0]
              for C0 in (1.0, 0.1, 0.01)]
    assert values[0] > values[1] > values[2]
    # the density scales linearly in C0 for n = 3
    assert values[2] <= 0.011 * values[0]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("C0", [0.5, 1.0, 2.0])
def test_An_matches_capacity_oracle_within_1_percent(n, C0):
    p = make_params(n=n, C0=C0, N=1.0, T=1.0)
    limit = capacity_limit(n, C0)
    assert abs(limit - p.An) <= 0.01 * p.An


def test_capacity_oracle_matches_closed_form_annulus_energy():
    # the closed-form energy lives here only; the oracle must never use it
    checked = 0
    for n in (3, 4, 5, 6, 8, 12):
        sigma = sphere_area(n)
        for C0 in (0.01, 1.0, 10.0):
            for eps in (4e-2, 2e-2, 1e-2, 4e-3, 2e-3, 1e-3, 4e-4, 2e-4, 1e-4):
                a, R = C0 * eps ** (n / (n - 2)), eps / 4.0
                if a >= R:
                    continue  # collapsed annulus: the oracle refuses it
                exact = (eps ** -n * sigma * (n - 2)
                         / (a ** (2 - n) - R ** (2 - n)))
                (value,) = cell_capacity_oracle(n, C0, [eps])
                assert value == pytest.approx(exact, rel=1e-12, abs=0.0), \
                    (n, C0, eps)
                checked += 1
    assert checked == 125


def test_oracle_sequence_converges_second_order_in_eps():
    eps = [4e-2, 2e-2, 1e-2]
    vals = np.array(cell_capacity_oracle(3, 1.0, eps))
    An = 4 * math.pi
    errs = np.abs(vals - An)
    assert errs[1] / errs[0] == pytest.approx(0.25, rel=0.15)
    assert errs[2] / errs[1] == pytest.approx(0.25, rel=0.15)


def test_box_predicates():
    inner = Box((0.2, 0.2), (0.8, 0.7))
    outer = Box((0.0, 0.0), (1.0, 1.0))
    assert inner.strictly_inside(outer)
    assert not outer.strictly_inside(inner)
    with pytest.raises(ValueError):
        Box((0.0,), (0.0,))


def test_non_integer_n_refused():
    # a whole float still works; 3.5 must not run as n = 3
    assert make_params(n=3.0, C0=1.0, N=1.0, T=1.0) \
        == make_params(n=3, C0=1.0, N=1.0, T=1.0)
    assert cell_capacity_oracle(3.0, 1.0, [1e-2]) \
        == cell_capacity_oracle(3, 1.0, [1e-2])
    with pytest.raises(ValueError, match="n must be a whole number"):
        make_params(n=3.5, C0=1.0, N=1.0, T=1.0)
    with pytest.raises(ValueError, match="n must be a whole number"):
        cell_capacity_oracle(3.5, 1.0, [1e-2])
