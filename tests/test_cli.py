import csv
import json
import tracemalloc

import numpy as np
import pytest

from memoctrl.cli import (_CSV_BLOCK_NODES, ConfigError, _coordinate_text,
                          _sweep_point_config, build_params, field_from_csv,
                          field_to_csv, load_config, main, normalize_config)
from memoctrl.cost import evaluate_J0
from memoctrl.fields import SpaceTimeField, SpatialGrid
from memoctrl.optimality import solve_optimality
from memoctrl.params import Box, make_params
from memoctrl.timeops import TimeGrid
from memoctrl.verify import run_suite

from .conftest import run_fresh_python


def write_cfg(tmp_path, overrides, name="cfg.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(overrides, fh)
    return str(path)


TINY = {"nodes_per_axis": [17], "nt": 16,
        "source": {"preset": "constant", "amplitude": 0.0}}


def test_config_round_trip(tmp_path):
    cfg = normalize_config({"n": 4, "C0": 2.0, "nt": 32})
    path = tmp_path / "echo.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    again = load_config(path)
    assert again == cfg


def test_config_rejections():
    with pytest.raises(ConfigError):
        normalize_config({"mystery_key": 1})
    with pytest.raises(ConfigError):
        normalize_config({"n": 2})
    with pytest.raises(ConfigError):
        normalize_config({"omega_box": {"lo": [0.5], "hi": [1.5]}})
    with pytest.raises(ConfigError):
        normalize_config({"nodes_per_axis": [2]})
    with pytest.raises(ConfigError):
        normalize_config({"source": {"preset": "banana"}})
    with pytest.raises(ConfigError):
        normalize_config({"solver": {"bogus": 1}})


def test_memory_cap_guard():
    with pytest.raises(ConfigError):
        normalize_config({"nodes_per_axis": [100000], "nt": 10000})


@pytest.mark.parametrize("nodes, nt", [([65], 128), ([13, 13, 13], 8)],
                         ids=["1d-65x128", "3d-13^3x8"])
def test_optimize_memory_within_estimate(tmp_path, nodes, nt):
    # the guard's estimate must cover what an optimize call really allocates
    dim = len(nodes)
    raw = {"sim_dim": dim, "nodes_per_axis": nodes, "nt": nt,
           "domain_box": {"lo": [0.0] * dim, "hi": [1.0] * dim},
           "omega_box": {"lo": [0.25] * dim, "hi": [0.75] * dim},
           "source": {"preset": "sine-product", "amplitude": 1.0}}
    cfg = write_cfg(tmp_path, raw)
    tracemalloc.start()
    try:
        assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                     "optimize"]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a cap just below the measured peak must be refused by the estimate
    with pytest.raises(ConfigError, match="exceeds cap"):
        normalize_config(dict(raw, memory_cap_mb=peak / 2 ** 20))


def test_solve_zero_source(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "run"
    assert main(["--config", cfg, "--out", str(out), "solve"]) == 0
    lines = (out / "u0.csv").read_text().splitlines()
    assert lines[0] == "x,t,value"
    vals = [float(line.split(",")[2]) for line in lines[1:]]
    assert all(v == 0.0 for v in vals)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["reports"]["state"]["converged"] is True


def test_solve_bad_config_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"omega_box": {"lo": [-1.0], "hi": [2.0]}})
    assert main(["--config", cfg, "--out", str(tmp_path / "x"), "solve"]) == 1
    assert "strictly inside" in capsys.readouterr().err


MALFORMED = [
    {"nodes_per_axis": ["a"]},
    {"nt": "x"},
    {"memory_cap_mb": "big"},
    {"solver": {"tol": "abc"}},
    {"nodes_per_axis": 17},
    {"source": {"preset": "constant", "amplitude": "a"}},
    {"omega_box": {"lo": [0.25]}},
    {"solver": {"max_picard": 2.5}},
    {"solver": {"tol": 0.0}},
    {"solver": {"tol": -1e-8}},
    {"solver": {"outer_tol": float("inf")}},
    {"solver": {"outer_tol": float("nan")}},
    {"solver": {"outer_max": 3.5}},
    {"solver": {"max_picard": True}},
    {"nt": 10 ** 400},
    {"N": 10 ** 400},
    {"source": {"preset": "gaussian-bump", "width": 0}},
    {"source": {"preset": "gaussian-bump", "width": "a"}},
    {"source": {"preset": "gaussian-bump", "center": [0.5, 0.5, 0.5]}},
    {"n": 3.5},
    {"T": 1e-300},  # 1/dt^2 overflows
    {"C0": 1e308},  # An overflows
]


@pytest.mark.parametrize("raw", MALFORMED, ids=range(len(MALFORMED)))
def test_malformed_value_exit_1_with_reason(tmp_path, capsys, raw):
    cfg = write_cfg(tmp_path, {**TINY, **raw})
    assert main(["--config", cfg, "--out", str(tmp_path / "x"), "solve"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_sweep_refuses_malformed_base_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**TINY, "nt": "x"})
    out = tmp_path / "s"
    assert main(["--config", cfg, "--out", str(out),
                 "sweep", "--axis", "N", "--values", "1,2"]) == 1
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (out / "sweep.csv").exists()


def test_oversize_grid_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, {"nodes_per_axis": [100000], "nt": 10000})
    assert main(["--config", cfg, "--out", str(tmp_path / "x"), "solve"]) == 1


def test_optimize_zero_source(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    out = tmp_path / "opt"
    assert main(["--config", cfg, "--out", str(out), "optimize"]) == 0
    breakdown = json.loads((out / "breakdown.json").read_text())
    assert breakdown["total"] == 0.0
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["outputs"]) >= {"u0.csv", "p0.csv", "v0.csv",
                                        "breakdown.json", "breakdown.csv"}


def test_manifest_resolution_block(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    params = make_params(n=3, C0=1.0, N=1.0, T=1.0)
    for command in ("solve", "optimize"):
        out = tmp_path / command
        assert main(["--config", cfg, "--out", str(out), command]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        res = manifest["resolution"]
        assert res == pytest.approx({"An_dt": params.An / 16,
                                     "mu_dt": params.mu / 16,
                                     "An_h2": params.An / 16 ** 2},
                                    rel=1e-15)
    assert "rel_gap" in manifest["fp_identity"]


def test_optimize_deterministic(tmp_path):
    overrides = {"nodes_per_axis": [17], "nt": 16,
                 "source": {"preset": "sine-product", "amplitude": 1.0}}
    cfg = write_cfg(tmp_path, overrides)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["--config", cfg, "--out", str(out_a), "optimize"]) == 0
    assert main(["--config", cfg, "--out", str(out_b), "optimize"]) == 0
    for name in ("u0.csv", "p0.csv", "v0.csv", "breakdown.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_field_csv_round_trip(tmp_path):
    grid = SpatialGrid(Box((0.0, 0.0), (1.0, 2.0)), (5, 7))
    tgrid = TimeGrid(T=1.0, nt=4)
    rng = np.random.default_rng(0)
    field = SpaceTimeField(grid, tgrid,
                           rng.normal(size=(grid.nnodes, tgrid.nt + 1)))
    path = tmp_path / "field.csv"
    field_to_csv(field, path)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,t,value"
    back = field_from_csv(path, grid, tgrid)
    assert np.array_equal(back.values, field.values)


def line_by_line_field_to_csv(field, path):
    """The writer field_to_csv replaced: one write per line; the reference."""
    grid, tgrid = field.grid, field.tgrid
    header = ",".join(("x", "y", "z")[:grid.dim]) + ",t,value"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for i in range(grid.nnodes):
            coords = ",".join(repr(float(c)) for c in grid.coords[i])
            for k, t in enumerate(tgrid.times):
                fh.write(f"{coords},{float(t)!r},{float(field.values[i, k])!r}\n")


# node counts below, at and above one write block, on 1-, 2- and 3-D grids
WRITER_GRIDS = [
    (Box((0.0,), (1.0,)), (5,)),
    (Box((-1.0,), (2.3,)), (_CSV_BLOCK_NODES,)),
    (Box((-1.0,), (2.3,)), (_CSV_BLOCK_NODES + 1,)),
    (Box((0.0, 0.3), (1.0, 1.7)), (8, _CSV_BLOCK_NODES // 8)),
    (Box((0.0, 0.3), (1.0, 1.7)), (9, 31)),
    (Box((0.0, 0.0, -0.5), (1.0, 2.0, 0.5)), (3, 4, 5)),
    (Box((0.0, 0.0, -0.5), (1.0, 2.0, 0.5)), (7, 7, 7)),
]
SPECIAL_VALUES = [0.0, -0.0, 5e-324, 1e16, 1e-5, 3.0, -7.0, 1e3, -1e16]


@pytest.mark.parametrize("box, shape", WRITER_GRIDS,
                         ids=[str(shape) for _, shape in WRITER_GRIDS])
def test_field_csv_bytes_match_line_writer(tmp_path, box, shape):
    grid = SpatialGrid(box, shape)
    tgrid = TimeGrid(T=0.7, nt=6)
    rng = np.random.default_rng(grid.nnodes)
    vals = rng.normal(size=(grid.nnodes, tgrid.nt + 1))
    vals[:, 0] = -0.0  # as in v0 at t = 0
    flat = vals.ravel()
    picks = rng.choice(flat.size, size=3 * len(SPECIAL_VALUES), replace=False)
    flat[picks] = np.resize(SPECIAL_VALUES, picks.size)
    field = SpaceTimeField(grid, tgrid, vals)
    field_to_csv(field, tmp_path / "blocks.csv")
    line_by_line_field_to_csv(field, tmp_path / "lines.csv")
    text = (tmp_path / "blocks.csv").read_text()
    assert all(f",{v!r}\n" in text for v in SPECIAL_VALUES)
    assert text == (tmp_path / "lines.csv").read_text()


def test_field_to_csv_memory_stays_per_block(tmp_path):
    # a whole-file join of this 13^3 x 9 field peaks near 4.6 MB
    grid = SpatialGrid(Box((0.0,) * 3, (1.0,) * 3), (13, 13, 13))
    tgrid = TimeGrid(T=1.0, nt=8)
    rng = np.random.default_rng(1)
    field = SpaceTimeField(grid, tgrid,
                           rng.normal(size=(grid.nnodes, tgrid.nt + 1)))
    _coordinate_text.cache_clear()  # count the coordinate text too
    tracemalloc.start()
    try:
        field_to_csv(field, tmp_path / "f.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


def five_node_csv(tmp_path):
    """Header and per-node row groups of a valid 5-node, nt = 4 field file."""
    grid = SpatialGrid(Box((0.0,), (1.0,)), (5,))
    tgrid = TimeGrid(T=1.0, nt=4)
    vals = np.outer(np.sin(np.pi * grid.coords[:, 0]), 1.0 + tgrid.times)
    path = tmp_path / "good.csv"
    field_to_csv(SpaceTimeField(grid, tgrid, vals), path)
    header, *rows = path.read_text().splitlines()
    groups = [rows[i:i + tgrid.nt + 1]
              for i in range(0, len(rows), tgrid.nt + 1)]
    return grid, tgrid, header, groups


def reversed_time(groups):
    return [row for g in groups for row in g[::-1]]


def wrong_t(groups):
    return [f"{row.split(',')[0]},7.5,{row.split(',')[2]}"
            for g in groups for row in g]


def moved_node(groups):
    # only a later row of node 2 carries node 3's coordinate
    groups[2][3] = groups[3][3]
    return sum(groups, [])


def dropped_column(groups):
    return [row.rsplit(",", 1)[0] for g in groups for row in g]


def not_a_number(groups):
    groups[1][2] = groups[1][2].replace(",", ",abc,", 1)
    return sum(groups, [])


BAD_ROWS = [(reversed_time, "times do not match"),
            (wrong_t, "times do not match"),
            (moved_node, "coordinates do not match"),
            (dropped_column, "expected"),
            (not_a_number, "cannot read")]


@pytest.mark.parametrize("corrupt, message", BAD_ROWS,
                         ids=[corrupt.__name__ for corrupt, _ in BAD_ROWS])
def test_field_from_csv_rejects_bad_rows(tmp_path, corrupt, message):
    grid, tgrid, header, groups = five_node_csv(tmp_path)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join([header] + corrupt(groups)) + "\n")
    with pytest.raises(ConfigError, match=message):
        field_from_csv(path, grid, tgrid)
    cfg = write_cfg(tmp_path, {"nodes_per_axis": [5], "nt": 4,
                               "source": {"csv": str(path)}})
    assert main(["--config", cfg, "--out", str(tmp_path / "o"),
                 "optimize"]) == 1


def test_optimize_manifest_picard_per_sweep(tmp_path):
    cfg = write_cfg(tmp_path, {"nodes_per_axis": [17], "nt": 16})
    out = tmp_path / "opt"
    assert main(["--config", cfg, "--out", str(out), "optimize"]) == 0
    outer = json.loads((out / "manifest.json").read_text())["reports"]["outer"]
    picard = outer["picard_per_sweep"]
    n = outer["iterations"]
    assert n > 1
    assert len(picard["state"]) == len(picard["adjoint"]) == n
    # sweeps after the first start from the previous sweep's solution
    assert sum(picard["state"]) < n * picard["state"][0]


def test_field_from_csv_returns_owned_values(tmp_path):
    cfg0 = normalize_config(dict(TINY))
    from memoctrl.cli import build_grids, build_params
    params = build_params(cfg0)
    grid, tgrid = build_grids(cfg0, params)
    field = SpaceTimeField.from_function(grid, tgrid,
                                         lambda x, t: 1.0 + np.sin(x) * t)
    path = tmp_path / "f.csv"
    field_to_csv(field, path)
    back = field_from_csv(path, grid, tgrid)
    assert back.values.flags.owndata and back.values.flags.c_contiguous
    assert np.array_equal(back.values, field.values)

    # a strided source solves to the same fields as a contiguous one
    wide = np.zeros(field.values.shape + (3,))
    wide[..., 2] = field.values
    strided = SpaceTimeField(grid, tgrid, wide[..., 2])
    assert not strided.values.flags.c_contiguous
    a = solve_optimality(strided, params)
    b = solve_optimality(back, params)
    for name in ("u0", "p0", "v0"):
        assert np.array_equal(getattr(a, name).values,
                              getattr(b, name).values)


def test_source_from_csv(tmp_path):
    cfg0 = normalize_config(dict(TINY))
    from memoctrl.cli import build_grids, build_params, build_source
    params = build_params(cfg0)
    grid, tgrid = build_grids(cfg0, params)
    field = SpaceTimeField.from_function(grid, tgrid,
                                         lambda x, t: np.sin(x) * (1 + t))
    path = tmp_path / "f.csv"
    field_to_csv(field, path)
    cfg = normalize_config({**TINY, "source": {"csv": str(path)}})
    rebuilt = build_source(cfg, params, grid, tgrid)
    assert np.allclose(rebuilt.values, field.values, atol=1e-15)


def test_verify_exit_codes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    code = main(["--config", cfg, "--out", str(tmp_path / "v1"),
                 "--seed", "7", "verify"])
    table_a = capsys.readouterr().out
    assert code == 0
    assert table_a.count("PASS") >= 15
    code = main(["--config", cfg, "--out", str(tmp_path / "v2"),
                 "--seed", "7", "verify"])
    table_b = capsys.readouterr().out
    assert code == 0
    assert table_a == table_b  # same seed, identical report


VERIFY_ROW_NAMES = [
    "params/Bn-times-C0", "params/mu-minus-Bn", "params/capacity-oracle-vs-An",
    "timeops/duality-M", "timeops/duality-G", "timeops/duality-H",
    "timeops/composition-GstarH", "timeops/composition-HGstar",
    "timeops/composition-rebuild-H", "timeops/relax-affine-exact",
    "timeops/bvp-GstarH-vs-shooting", "timeops/bvp-HGstar-vs-shooting",
    "timeops/H-vs-picard", "fields/laplacian-symmetry",
    "fields/mask-partition", "fields/lift-separability", "state/zero-data",
    "state/manufactured-solution", "state/dense-oracle",
    "optimality/outer-converged", "optimality/terminal-coupling",
    "optimality/control-route-equivalence", "cost/fp-identity",
    "cost/total-equals-sum", "cost/terms-nonnegative", "optimality/minimality",
    "cost/decomposition-M", "cost/decomposition-GH",
    "cost/decomposition-HGstar", "cost/gradient-vs-finite-difference",
    "state/affinity",
]


def test_verify_rows_named_and_ordered():
    # the benchmark counts the rows and reads cost/fp-identity by name
    params = build_params(normalize_config({}))
    assert [r.name for r in run_suite(params, seed=7)] == VERIFY_ROW_NAMES


def test_verify_tamper_exit_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, TINY)
    code = main(["--config", cfg, "--out", str(tmp_path / "v3"),
                 "verify", "--tamper-an", "1.1"])
    captured = capsys.readouterr()
    assert code == 3
    assert "capacity-oracle" in captured.err


def test_sweep_aggregate(tmp_path):
    overrides = {"nodes_per_axis": [17], "nt": 16,
                 "source": {"preset": "constant", "amplitude": 1.0}}
    cfg = write_cfg(tmp_path, overrides)
    out = tmp_path / "swp"
    code = main(["--config", cfg, "--out", str(out),
                 "sweep", "--axis", "N", "--values", "1,10"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert len(rows) == 2
    # the explicit-control cost coefficient N*An*Bn scales with the swept N
    coef = [float(r["N_param"]) * float(r["An"]) * float(r["Bn"])
            for r in rows]
    assert coef[1] / coef[0] == pytest.approx(10.0, rel=1e-12)
    assert all(r["converged"] == "True" for r in rows)


def test_sweep_refinement_gap_decreases(tmp_path):
    overrides = {"nodes_per_axis": [33], "nt": 16,
                 "source": {"preset": "constant", "amplitude": 1.0}}
    cfg = write_cfg(tmp_path, overrides)
    out = tmp_path / "swp_nt"
    code = main(["--config", cfg, "--out", str(out),
                 "sweep", "--axis", "nt", "--values", "16,32,64"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    gaps = [float(dict(zip(header, line.split(",")))["fp_rel_gap"])
            for line in lines[1:]]
    assert gaps[0] > gaps[1] > gaps[2]


def test_sweep_csv_quotes_error_text(tmp_path):
    # omega_size 0 collapses the box; its error text holds a comma
    overrides = {"nodes_per_axis": [9], "nt": 8,
                 "source": {"preset": "constant", "amplitude": 1.0}}
    cfg = write_cfg(tmp_path, overrides)
    with pytest.raises(ConfigError) as err:
        _sweep_point_config(load_config(cfg), "omega_size", 0.0)
    assert "," in str(err.value)
    out = tmp_path / "swq"
    code = main(["--config", cfg, "--out", str(out),
                 "sweep", "--axis", "omega_size", "--values", "0,1"])
    assert code == 2
    with open(out / "sweep.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(rows) == 2
    assert all(len(row) == len(header) for row in rows)
    failed, ok = (dict(zip(header, row)) for row in rows)
    assert failed["exit"] == "1"
    assert failed["error"] == str(err.value)
    assert ok["exit"] == "0" and ok["converged"] == "True"


def test_sweep_empty_values_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    assert main(["--config", cfg, "--out", str(tmp_path / "s"),
                 "sweep", "--axis", "N", "--values", ","]) == 1


def test_sweep_parallel_workers(tmp_path):
    overrides = {"nodes_per_axis": [9], "nt": 8,
                 "source": {"preset": "constant", "amplitude": 1.0}}
    cfg = write_cfg(tmp_path, overrides)
    out = tmp_path / "par"
    code = main(["--config", cfg, "--out", str(out), "--workers", "2",
                 "sweep", "--axis", "C0", "--values", "0.5,1.0"])
    assert code == 0
    assert (out / "sweep.csv").exists()
    assert (out / "point_000" / "manifest.json").exists()
    assert (out / "point_001" / "manifest.json").exists()


def test_solver_breakdown_exit_2(tmp_path, capsys, monkeypatch):
    def breakdown(*args, **kwargs):
        raise FloatingPointError("state iterate became non-finite")

    monkeypatch.setattr("memoctrl.cli.solve_optimality", breakdown)
    cfg = write_cfg(tmp_path, TINY)
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "optimize"])
    captured = capsys.readouterr()
    assert code == 2
    assert "solver error: state iterate became non-finite" in captured.err
    assert "Traceback" not in captured.err
    # a failing point is a row of the sweep, not the end of it
    out = tmp_path / "swp"
    code = main(["--config", cfg, "--out", str(out),
                 "sweep", "--axis", "N", "--values", "1,10"])
    assert code == 2
    lines = (out / "sweep.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert [r["exit"] for r in rows] == ["2", "2"]
    assert all(r["error"].startswith("solver error: ") for r in rows)


def test_optimize_outer_cap_exit_2_with_reason(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"nodes_per_axis": [17], "nt": 16,
                               "solver": {"outer_max": 2}})
    out = tmp_path / "o"
    code = main(["--config", cfg, "--out", str(out), "optimize"])
    captured = capsys.readouterr()
    assert code == 2
    outer = json.loads((out / "manifest.json").read_text())["reports"]["outer"]
    assert outer["converged"] is False and outer["iterations"] == 2
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("solver error: outer sweep loop reached "
                               "outer_max = 2")
    assert f"{outer['final_residual']:.3e}" in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("cap, loop", [(1, "adjoint"), (2, "state")])
def test_optimize_inner_cap_exit_2_with_reason(tmp_path, capsys, cap, loop):
    # the sweeps converge, but the last sweep's Picard loops stop at the cap
    cfg = write_cfg(tmp_path, {"nodes_per_axis": [17], "nt": 16,
                               "solver": {"max_picard": cap}})
    out = tmp_path / "o"
    code = main(["--config", cfg, "--out", str(out), "optimize"])
    lines = capsys.readouterr().err.splitlines()
    reports = json.loads((out / "manifest.json").read_text())["reports"]
    assert reports[loop]["converged"] is False
    assert code == 2
    assert len(lines) == 1
    assert lines[0].startswith(f"solver error: {loop} Picard loop reached "
                               f"max_picard = {cap}")


def test_optimize_evaluates_cost_once(tmp_path, monkeypatch):
    # breakdown.json and the fp identity share one J0 evaluation
    calls = []

    def counted(*args):
        calls.append(args)
        return evaluate_J0(*args)

    for module in ("memoctrl.cli", "memoctrl.cost"):
        monkeypatch.setattr(f"{module}.evaluate_J0", counted)
    cfg = write_cfg(tmp_path, {"nodes_per_axis": [17], "nt": 16})
    out = tmp_path / "o"
    assert main(["--config", cfg, "--out", str(out), "optimize"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    breakdown = json.loads((out / "breakdown.json").read_text())
    assert len(calls) == 1
    assert manifest["fp_identity"]["J0_total"] == breakdown["total"]


def test_solve_picard_cap_exit_2_with_reason(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"nodes_per_axis": [17], "nt": 16,
                               "solver": {"max_picard": 1}})
    code = main(["--config", cfg, "--out", str(tmp_path / "o"), "solve"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("solver error: state Picard loop reached "
                                   "max_picard = 1")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("key", ["max_picard", "outer_max"])
def test_config_rejects_zero_iteration_cap(key):
    with pytest.raises(ConfigError):
        normalize_config({"solver": {key: 0}})


def test_usage_error_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, TINY)
    # unknown sweep axis is a usage/validation error, never anything but 1
    assert main(["--config", cfg, "--out", str(tmp_path / "u"),
                 "sweep", "--axis", "bogus", "--values", "1,2"]) == 1
    assert main(["--totally-bogus-flag", "solve"]) == 1


def test_optimize_default_desk_grid_fp_gap(tmp_path):
    # the stock configuration must demonstrate the cost identity at 1e-3
    out = tmp_path / "desk"
    assert main(["--out", str(out), "optimize"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["fp_identity"]["rel_gap"] <= 1e-3


@pytest.fixture(scope="module")
def fresh_scipy_modules():
    """The scipy modules a new interpreter holds after importing the CLI and
    running the capacity oracle, so a lazy import inside it counts too."""
    out = run_fresh_python(
        "import sys, memoctrl, memoctrl.cli\n"
        "memoctrl.capacity_limit(3, 1.0)\n"
        "print(*[m for m in sys.modules if m.startswith('scipy')])")
    assert out.returncode == 0, out.stderr
    return set(out.stdout.split())


def test_cli_import_does_not_load_scipy_signal(fresh_scipy_modules):
    # scipy.signal would add ~0.4 s of import time and ~23 MB of RSS to
    # every run; the time kernels use scipy.linalg's LAPACK wrappers instead
    assert "scipy.signal" not in fresh_scipy_modules


def test_cli_import_does_not_load_scipy_sparse(fresh_scipy_modules):
    # the Laplacian is a numpy stencil; scipy.sparse would add 33 scipy
    # modules and about 1.5 MB of RSS to every process
    assert "scipy.sparse" not in fresh_scipy_modules


def test_cli_and_capacity_oracle_do_not_load_scipy_integrate(
        fresh_scipy_modules):
    # scipy.integrate pulls in scipy.optimize, scipy.spatial and more: about
    # 0.26 s of import time and 17 MB of RSS in every process
    assert not fresh_scipy_modules & {"scipy.integrate", "scipy.optimize",
                                      "scipy.spatial", "scipy.interpolate"}
