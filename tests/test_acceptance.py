"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and runtimes.  Criterion 8 is split: the cross-check of the two
independent routes to the optimal control passes; the stationarity
sub-criterion at its stated 1e-6 tolerance measures the structural gap
between the discretized optimality system and the exact derivative of the
discrete functional (see the repository notes), which decays at second
order under refinement but exceeds 1e-6 on desk grids -- that test fails
honestly rather than loosening the stated tolerance.
"""

import math
import time

import numpy as np

from memoctrl import (SpaceTimeField, SpatialGrid, StateProblem, TimeGrid,
                      check_GH_decomposition, check_HGstar_decomposition,
                      check_M_decomposition, evaluate_J0, omega_mask,
                      solve_optimality, solve_state)
from memoctrl.cli import main as cli_main
from memoctrl.cost import gradient_J0_terms
from memoctrl.fields import spacetime_inner
from memoctrl.optimality import direct_minimize
from memoctrl.verify import (adjoint_pairs, composition_gaps, dense_state_gap,
                             decomposition_gap, duality_gap, fp_identity_gap,
                             gradient_fd_gap, manufactured_state,
                             shooting_gaps)

from .conftest import (control_field, default_params, fourier_callable,
                       seeded_field)
from .oracles import dense_optimality_solve
from .test_optimality import adjoint_mms_error


def report(num, name, passed, detail, elapsed, budget):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:>3} {name}: {status} ({detail}) "
          f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    assert elapsed <= budget, f"runtime {elapsed:.1f}s exceeds budget {budget}s"
    assert passed, f"criterion {num} {name}: {detail}"


def test_criterion_01_operator_dualities():
    t0 = time.perf_counter()
    params = default_params()
    rng = np.random.default_rng(1001)
    pairs = [(fourier_callable(rng, 1.0, modes=3, decay=2.0),
              fourier_callable(rng, 1.0, modes=3, decay=2.0))
             for _ in range(20)]
    worst = {}
    for nt in (256, 512):
        grid = TimeGrid(T=1.0, nt=nt)
        for name, pair in adjoint_pairs(params, grid.dt).items():
            worst[(name, nt)] = max(
                duality_gap(pair, grid, fa(grid.times), fb(grid.times))
                for fa, fb in pairs)
    ok = all(worst[(n, 256)] <= 1e-4 for n in "MGH") \
        and all(worst[(n, 512)] <= worst[(n, 256)] / 3.5 for n in "MGH")
    detail = ", ".join(f"{n}: {worst[(n, 256)]:.2e}->{worst[(n, 512)]:.2e}"
                       for n in "MGH")
    report(1, "operator-dualities", ok, detail, time.perf_counter() - t0, 1.0)


def test_criterion_02_composition_identities():
    t0 = time.perf_counter()
    params = default_params()
    rng = np.random.default_rng(1002)
    fns = [fourier_callable(rng, 1.0, modes=3) for _ in range(5)]
    gaps = {"i-GstarH": [], "i-HGstar": [], "ii": []}
    for nt in (256, 512):
        grid = TimeGrid(T=1.0, nt=nt)
        per_fn = []
        for fn in fns:
            phi = fn(grid.times)
            norm = float(np.max(np.abs(phi)))
            per_fn.append([gap / norm for gap in
                           composition_gaps(params, grid.dt, phi).values()])
        for label, col in zip(gaps, zip(*per_fn)):
            gaps[label].append(max(col))
    ok = all(v[0] <= 1e-4 and v[1] <= v[0] / 3.5 for v in gaps.values())
    detail = ", ".join(f"{k}: {v[0]:.2e}->{v[1]:.2e}" for k, v in gaps.items())
    report(2, "composition-identities", ok, detail,
           time.perf_counter() - t0, 1.0)


def test_criterion_03_bvp_vs_shooting():
    t0 = time.perf_counter()
    params = default_params()
    grid = TimeGrid(T=1.0, nt=2000)
    worst = max(max(shooting_gaps(params, fourier_callable(
        np.random.default_rng(1100 + seed), 1.0, modes=3), grid).values())
        for seed in range(5))
    report(3, "bvp-vs-rk4-shooting", worst <= 1e-6,
           f"max gap {worst:.2e} <= 1e-06", time.perf_counter() - t0, 5.0)


def test_criterion_04_capacity_constant():
    t0 = time.perf_counter()
    from memoctrl import capacity_limit
    worst = 0.0
    for n in (3, 4, 5):
        for C0 in (0.5, 1.0, 2.0):
            p = default_params(n=n, C0=C0)
            worst = max(worst, abs(capacity_limit(n, C0) - p.An) / p.An)
    report(4, "capacity-constant", worst <= 0.01,
           f"max rel gap {worst:.2e} <= 1e-02", time.perf_counter() - t0, 1.0)


def test_criterion_05_manufactured_solutions():
    t0 = time.perf_counter()
    levels = [(65, 128), (129, 256), (257, 512)]
    state_errs, adj_errs = [], []
    for nx, nt in levels:
        params = default_params()
        grid = SpatialGrid(params.domain_box, (nx,))
        tgrid = TimeGrid(T=1.0, nt=nt)
        f, u_star = manufactured_state(params, grid, tgrid)
        u, rep = solve_state(StateProblem(params=params, f=f, tol=1e-9))
        assert rep.converged
        state_errs.append(np.max(np.abs(u.values - u_star.values)))
        adj_errs.append(adjoint_mms_error(nx, nt))
    ok = all(e1 <= e0 / 3.5 for e0, e1 in zip(state_errs, state_errs[1:])) \
        and all(e1 <= e0 / 3.5 for e0, e1 in zip(adj_errs, adj_errs[1:]))
    detail = ("state " + "->".join(f"{e:.2e}" for e in state_errs)
              + "; adjoint " + "->".join(f"{e:.2e}" for e in adj_errs))
    report(5, "manufactured-solutions", ok, detail,
           time.perf_counter() - t0, 60.0)


def test_criterion_06_dense_oracles():
    t0 = time.perf_counter()
    params = default_params()
    grid = SpatialGrid(params.domain_box, (9,))
    tgrid = TimeGrid(T=1.0, nt=16)
    x = grid.coords[:, 0][:, None]
    t = tgrid.times[None, :]
    f = SpaceTimeField(grid, tgrid,
                       (1.0 + 0.3 * np.sin(np.pi * x)) * np.ones_like(t))
    v = control_field(params, grid, tgrid, lambda xs, tt: xs * tt)
    gap_state = dense_state_gap(params, f, v)
    result = solve_optimality(f, params, outer_tol=1e-11)
    du, dp = dense_optimality_solve(params, grid, tgrid, f.values)
    gap_u = np.max(np.abs(result.u0.values[grid.interior_idx] - du))
    gap_p = np.max(np.abs(result.p0.values[grid.interior_idx] - dp))
    worst = max(gap_state, gap_u, gap_p)
    report(6, "dense-oracle-equivalence", worst <= 1e-6,
           f"state {gap_state:.2e}, coupled u {gap_u:.2e}, p {gap_p:.2e}",
           time.perf_counter() - t0, 10.0)


def test_criterion_07_fp_identity():
    t0 = time.perf_counter()
    gaps = []
    for nx, nt in ((65, 128), (129, 256)):
        params = default_params()
        grid = SpatialGrid(params.domain_box, (nx,))
        tgrid = TimeGrid(T=1.0, nt=nt)
        f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
        result = solve_optimality(f, params)
        assert result.converged
        gaps.append(fp_identity_gap(params, f, result))
    ok = gaps[0] <= 1e-3 and gaps[1] <= gaps[0] / 3.5
    report(7, "fp-identity", ok,
           f"rel gap {gaps[0]:.2e} -> {gaps[1]:.2e} (x{gaps[0]/gaps[1]:.2f})",
           time.perf_counter() - t0, 120.0)


def _desk_optimality():
    params = default_params()
    grid = SpatialGrid(params.domain_box, (33,))
    tgrid = TimeGrid(T=1.0, nt=64)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    result = solve_optimality(f, params, outer_tol=1e-10)
    return params, grid, tgrid, f, result


def test_criterion_08a_optimality_cross_check():
    t0 = time.perf_counter()
    params, grid, tgrid, f, result = _desk_optimality()
    J_sys = evaluate_J0(result.v0, result.u0, params).total
    v_star, history, info = direct_minimize(f, params, grad_tol=1e-11,
                                            max_iter=60, inner_tol=1e-11)
    assert all(b <= a + 1e-15 for a, b in zip(history, history[1:])), \
        "cost history must be non-increasing"
    J_star = history[-1]
    dv = SpaceTimeField(grid, tgrid, v_star.values - result.v0.values)
    w = omega_mask(grid, params)
    rel_dist = math.sqrt(spacetime_inner(dv, dv, mask=w)
                         / spacetime_inner(result.v0, result.v0, mask=w))
    ok = abs(J_star - J_sys) <= 1e-6 and rel_dist <= 1e-2
    report("8a", "optimality-cross-check", ok,
           f"|J*-J0(v0)|={abs(J_star - J_sys):.2e} <= 1e-06, "
           f"||v*-v0||/||v0||={rel_dist:.2e} <= 1e-02",
           time.perf_counter() - t0, 300.0)


def test_criterion_08b_stationarity():
    """Stationarity of the exact discrete derivative at the system's v0.

    The measured cancellation is the discretize-then-optimize versus
    optimize-then-discretize gap: O(h^2 + dt^2), about 2e-3 of the gross
    pairing magnitude on the desk grid, decaying second order (see
    the project notes).  The stated 1e-6 is therefore not attainable at any
    feasible grid; the assertion is kept at its stated value and fails
    honestly rather than being loosened.
    """
    t0 = time.perf_counter()
    params, grid, tgrid, f, result = _desk_optimality()
    rng = np.random.default_rng(1008)
    worst = 0.0
    for k in range(10):
        direction = control_field(
            params, grid, tgrid,
            lambda x, t: rng.normal() * np.sin((k % 3 + 1) * np.pi * x) * t
            + rng.normal() * np.cos(x) * t ** 2)
        terms = gradient_J0_terms(result.v0, result.u0, params, direction,
                                  tol=1e-11)
        gross = sum(abs(v) for v in terms.values())
        worst = max(worst, abs(sum(terms.values())) / gross)
    report("8b", "stationarity-at-system-control", worst <= 1e-6,
           f"max |J0'(v0).v|/scale = {worst:.2e} vs 1e-06 "
           f"(scale = gross pairing magnitude)",
           time.perf_counter() - t0, 300.0)


def test_criterion_09_decompositions():
    t0 = time.perf_counter()
    params = default_params()
    nts = (128, 256, 512)
    checkers = {"M": check_M_decomposition, "GH": check_GH_decomposition,
                "HGstar": check_HGstar_decomposition}
    details = []
    ok = True
    for name, checker in checkers.items():
        gaps = []
        for nt in nts:
            grid = SpatialGrid(params.domain_box, (9,))
            tgrid = TimeGrid(T=1.0, nt=nt)
            gaps.append(max(decomposition_gap(
                params, checker, seeded_field(grid, tgrid, seed))
                for seed in (5, 21, 33)))
        order = np.polyfit(np.log([1.0 / nt for nt in nts]),
                           np.log(gaps), 1)[0]
        ok = ok and gaps[0] <= 25.0 * (1.0 / nts[0]) ** 2 and order >= 1.6
        details.append(f"{name}: gap {gaps[0]:.2e}, order {order:.2f}")
    report(9, "decomposition-identities", ok, "; ".join(details),
           time.perf_counter() - t0, 10.0)


def test_criterion_10_gradient_check():
    t0 = time.perf_counter()
    params = default_params()
    grid = SpatialGrid(params.domain_box, (17,))
    tgrid = TimeGrid(T=1.0, nt=32)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: 1.0 + 0 * x)
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1200 + seed)
        v0 = control_field(params, grid, tgrid,
                           lambda x, t: rng.normal() * np.sin(np.pi * x) * t
                           + rng.normal() * x * t ** 2)
        dv = control_field(params, grid, tgrid,
                           lambda x, t: rng.normal() * np.cos(2 * x) * t
                           + rng.normal() * t ** 3)
        worst = max(worst, gradient_fd_gap(params, f, v0, dv))
    report(10, "gradient-vs-finite-difference", worst <= 1e-5,
           f"max rel gap {worst:.2e} <= 1e-05", time.perf_counter() - t0, 60.0)


def test_criterion_11_verify_exit_discipline(tmp_path, capsys):
    t0 = time.perf_counter()
    clean = cli_main(["--out", str(tmp_path / "clean"), "--seed", "42",
                      "verify"])
    tampered = cli_main(["--out", str(tmp_path / "tampered"), "--seed", "42",
                         "verify", "--tamper-an", "1.1"])
    out = capsys.readouterr().out
    n_checks = out.count("PASS") + out.count("FAIL")
    ok = clean == 0 and tampered == 3 and n_checks >= 2 * 15
    with capsys.disabled():
        report(11, "verify-exit-discipline", ok,
               f"clean exit {clean}, tampered exit {tampered}, "
               f"{n_checks} invariant rows", time.perf_counter() - t0, 600.0)
