import json
import math
import warnings

import numpy as np
import pytest

from groundbem import bem, experiments
from groundbem.bem import BemConfig, assemble, evaluate_field, set_point_source_rhs, solve
from groundbem.errors import DomainError, QuadratureError
from groundbem.experiments import (
    ALPHA_STAR,
    AccuracyMap,
    CostModel,
    accuracy_map,
    analytic_bump_potential,
    choose_truncation,
    cost_bracket,
    cost_optimizer,
    fit_cost_constants,
    fit_power_law,
    kernel_cost,
    measure_cost_curve,
    relative_l2_error,
    run_bump_experiment,
    run_dip_experiment,
    write_csv,
    write_report,
)

from conftest import SpluSpy, green


# ---------------------------------------------------------------------------
# Analytic oracle
# ---------------------------------------------------------------------------


def test_bump_potential_vanishes_on_unit_sphere(rng):
    for _ in range(6):
        d = rng.normal(size=3)
        d /= np.linalg.norm(d)
        d[2] = abs(d[2])
        assert abs(analytic_bump_potential(d, 2.0)) < 1e-13


def test_bump_potential_vanishes_on_plane(rng):
    for rho in (1.3, 2.5, 7.0):
        phi = rng.uniform(0, 2 * math.pi)
        y = (rho * math.cos(phi), rho * math.sin(phi), 0.0)
        assert abs(analytic_bump_potential(y, 2.0)) < 1e-13


def test_bump_potential_pinned_value():
    # frozen arithmetic of the four-monopole sum at y=(0,0,1.5), h=2
    assert analytic_bump_potential((0.0, 0.0, 1.5), 2.0) == pytest.approx(
        0.1165241547637091, rel=1e-14
    )


def test_bump_potential_errors():
    with pytest.raises(DomainError):
        analytic_bump_potential((0.0, 0.0, 1.5), 0.9)
    with pytest.raises(DomainError):
        analytic_bump_potential((0.0, 0.0, 2.0), 2.0)


# ---------------------------------------------------------------------------
# Error norm
# ---------------------------------------------------------------------------


def test_relative_l2_trivial(rng):
    f = rng.normal(size=40)
    assert relative_l2_error(f, f) == 0.0
    assert relative_l2_error(1.01 * f, f) == pytest.approx(0.01, rel=1e-12)


def test_relative_l2_matches_two_pass_oracle(rng):
    f = rng.normal(size=200)
    ref = rng.normal(size=200) + 3.0
    num = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(f, ref)))
    den = math.sqrt(math.fsum(b * b for b in ref))
    assert relative_l2_error(f, ref) == pytest.approx(num / den, rel=1e-13)


def test_relative_l2_errors():
    with pytest.raises(DomainError):
        relative_l2_error([1.0, 2.0], [1.0])
    with pytest.raises(DomainError):
        relative_l2_error([1.0], [0.0])


# ---------------------------------------------------------------------------
# Truncation choice and cost model
# ---------------------------------------------------------------------------


def test_choose_truncation_examples():
    assert choose_truncation(1.0, math.exp(0.8), 1e-4) == 12
    assert choose_truncation(1.0, 10.0, 1e-3) == 3
    assert choose_truncation(1.0, 2.0, 1e-6) == 20
    assert choose_truncation(1.0, 100.0, 0.5) == 2  # floor at 2
    with pytest.raises(DomainError):
        choose_truncation(1.0, 1.0, 1e-4)
    with pytest.raises(DomainError):
        choose_truncation(1.0, 2.0, 2.0)


def test_cost_model_identities():
    m = CostModel()
    assert m.beta == pytest.approx(math.exp(m.alpha_star), rel=1e-15)
    for eps in (1e-3, 1e-4, 1e-6):
        assert m.p_critical(eps) * m.alpha_star == pytest.approx(
            math.log(1.0 / eps), rel=1e-12
        )
    # ALPHA_STAR solves 1 - t - exp(-2t) = 0
    assert abs(1.0 - ALPHA_STAR - math.exp(-2.0 * ALPHA_STAR)) < 1e-14


def test_bracket_sign_change_straddles_critical_p():
    eps = 1e-4
    pc = CostModel().p_critical(eps)
    assert cost_bracket(pc - 2.0, eps) < 0.0
    assert cost_bracket(pc + 2.0, eps) > 0.0
    assert abs(cost_bracket(pc, eps)) < 1e-6 * abs(cost_bracket(pc + 2.0, eps))


def test_delta_opt_scaling_with_n():
    # delta_opt ~ N^{-(alpha-1)/4}: at alpha = 3 quadrupling N halves it
    model = CostModel(cost_exponent=3.0, a=1.0, b=2.0, c=2.0, d=0.5)
    o1 = cost_optimizer(model, n_size=4000, a0=10.0, r0=1.0, eps=1e-4)
    o2 = cost_optimizer(model, n_size=16000, a0=10.0, r0=1.0, eps=1e-4)
    assert o2.delta_opt == pytest.approx(o1.delta_opt / 2.0, rel=1e-12)
    assert o1.re_kernel_bound == pytest.approx(model.beta, rel=1e-12)


def test_delta_opt_is_stationary_point():
    model = CostModel(cost_exponent=3.0, a=1.0, b=2.0, c=2.0, d=0.5)
    n, a0, r0, eps = 8000, 12.0, 1.0, 1e-4
    opt = cost_optimizer(model, n_size=n, a0=a0, r0=r0, eps=eps)

    def asymptotic_cost(delta):
        ln3 = math.log(1.0 / eps) ** 3
        return (
            model.d * n**3
            + model.b * n / delta**3 * ln3
            + 2.0 * model.d * n**3 * 3.0 * math.pi * r0 * r0 / a0 * delta
        )

    d = opt.delta_opt
    f0 = asymptotic_cost(d)
    assert asymptotic_cost(d * 1.05) > f0
    assert asymptotic_cost(d * 0.95) > f0


def test_fit_recovers_constants():
    true = CostModel(cost_exponent=3.0, a=2e-9, b=3e-9, c=1.5e-9, d=4e-11)
    samples = []
    rng = np.random.default_rng(5)
    for _ in range(12):
        m = int(rng.integers(100, 5000))
        n = int(rng.integers(100, 5000))
        p = int(rng.integers(4, 30))
        eps = 10.0 ** -rng.integers(3, 7)
        rho_area = float(rng.uniform(10, 500))
        t = kernel_cost(true, m, n, rho_area, p, eps)
        nt = int(rng.integers(500, 4000))
        samples.append(
            dict(m=m, n=n, p=p, eps=eps, rho_area=rho_area, kernel_seconds=t,
                 n_total=nt, bem_seconds=true.d * nt**3)
        )
    fitted = fit_cost_constants(CostModel(), samples)
    assert fitted.a == pytest.approx(true.a, rel=1e-6)
    assert fitted.b == pytest.approx(true.b, rel=1e-6)
    assert fitted.c == pytest.approx(true.c, rel=1e-6)
    assert fitted.d == pytest.approx(true.d, rel=1e-6)
    assert fitted.fitted


def test_unfitted_optimizer_rejected():
    with pytest.raises(DomainError):
        cost_optimizer(CostModel(), n_size=1000, a0=10.0, r0=1.0, eps=1e-4)


# ---------------------------------------------------------------------------
# Accuracy map
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_map():
    return accuracy_map(
        ratios=[math.exp(0.8), 3.0],
        p_values=[4, 8, 12, 16, 22, 26, 30],
        n_receivers=6,
        n_sources=10,
        seed=3,
        tol=1e-8,
    )


def test_accuracy_map_boundary_law(small_map):
    # at the critical ratio, p = 12 must deliver prescribed 1e-4 within an
    # order of magnitude
    i = 0
    j = list(small_map.p_values).index(12)
    assert small_map.eps2[i, j] <= 1e-3
    assert not small_map.failures


def test_accuracy_map_monotone_then_plateau(small_map):
    # increasing p improves the error geometrically until the reference
    # floor; at ratio 3 the decay between the last two truncations is an
    # order of magnitude slower than the geometric rate (floor onset)
    row = small_map.eps2[1]
    assert row[0] > row[1] > row[2] > row[3]
    geometric = 3.0 ** -(small_map.p_values[-1] - small_map.p_values[-2])
    assert row[-1] > 3.0 * geometric * row[-2]
    assert row[-1] < 1e-13


def test_accuracy_map_deterministic():
    a = accuracy_map([2.0], [4, 6], n_receivers=4, n_sources=6, seed=9, tol=1e-7)
    b = accuracy_map([2.0], [4, 6], n_receivers=4, n_sources=6, seed=9, tol=1e-7)
    assert np.array_equal(a.eps2, b.eps2)


def test_accuracy_map_records_only_package_errors(monkeypatch):
    # a quadrature failure is recorded and its cell left out of eps2; a
    # programming error propagates instead of passing for a failed cell
    real = experiments.kernel_integral
    calls = []

    def one_failure(y, x, cfg):
        calls.append(None)
        if len(calls) == 2:
            raise QuadratureError("periodic rule did not converge")
        return real(y, x, cfg)

    monkeypatch.setattr(experiments, "kernel_integral", one_failure)
    got = accuracy_map([2.0], [4, 6], n_receivers=4, n_sources=6, seed=9, tol=1e-7)
    assert [f["pair"] for f in got.failures] == [(0, 1)]
    assert "did not converge" in got.failures[0]["error"]
    assert np.all(np.isfinite(got.eps2))

    def broken(y, x, cfg):
        raise TypeError("unexpected argument")

    monkeypatch.setattr(experiments, "kernel_integral", broken)
    with pytest.raises(TypeError):
        accuracy_map([2.0], [4, 6], n_receivers=4, n_sources=6, seed=9, tol=1e-7)


@pytest.mark.parametrize("study, kwargs, match", [
    # a p is never cast: 6.5 must not run as p = 6
    (accuracy_map, dict(p_values=(6.5,)), "truncation number must be an integer"),
    (accuracy_map, dict(p_values=(4, 1)), "truncation number must be an integer"),
    # 0.998 ratio^2 <= 1 leaves the plane sources no annulus to be drawn from
    (accuracy_map, dict(ratios=(2.0, 0.8)), "extension ratios"),
    (accuracy_map, dict(ratios=(math.nan,)), "extension ratios"),
    (measure_cost_curve, dict(ratios=(1.0005,)), "extension ratios"),
    (measure_cost_curve, dict(ratios=(2.0, math.inf)), "extension ratios"),
    # no run to take the best of
    (measure_cost_curve, dict(repeats=0), "repeats"),
    # nothing to map or time
    (accuracy_map, dict(p_values=()), "at least one truncation number"),
    (accuracy_map, dict(ratios=()), "extension ratios"),
    (measure_cost_curve, dict(ratios=()), "extension ratios"),
    # counts are integers of at least 1, never cast and never a bool
    (measure_cost_curve, dict(repeats=2.5), "repeats must be an integer"),
    (accuracy_map, dict(n_sources=2.5), "n_sources must be an integer"),
    (measure_cost_curve, dict(n_sources=-1), "n_sources must be an integer"),
    (accuracy_map, dict(n_receivers=True), "n_receivers must be an integer"),
    (measure_cost_curve, dict(n_receivers=0), "n_receivers must be an integer"),
], ids=["p-6.5", "p-1", "ratio-0.8", "ratio-nan", "ratio-1.0005", "ratio-inf", "repeats-0",
        "no-p", "no-ratio-map", "no-ratio-curve", "repeats-2.5", "n_sources-2.5",
        "n_sources--1", "n_receivers-True", "n_receivers-0"])
def test_studies_refuse_bad_input_before_any_work(study, kwargs, match, monkeypatch):
    work = []
    for name in ("kernel_integral", "source_signature_batch"):
        monkeypatch.setattr(experiments, name, lambda *args, name=name: work.append(name))
    with pytest.raises(DomainError, match=match):
        study(**kwargs)
    assert work == []


# ---------------------------------------------------------------------------
# Benchmarks (small smoke versions; full scale runs in acceptance)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_bump():
    return run_bump_experiment(h=2.0, delta=0.25, target_edge=0.35, eps=1e-3,
                               grid_shape=(6, 8))


def test_bump_experiment_orders_methods(tiny_bump):
    assert tiny_bump.eps2_inf < tiny_bump.eps2_truncated
    assert tiny_bump.eps2_inf < 0.1
    assert set(tiny_bump.fields) == {"inf", "truncated", "image"}
    assert tiny_bump.n_omega0 < tiny_bump.n_panels


def test_bump_report_files(tiny_bump, tmp_path):
    paths = write_report(tiny_bump, tmp_path)
    names = {p.split("/")[-1] for p in paths}
    assert names == {"bump_seed0.json", "bump_seed0_fields.csv"}
    payload = json.loads((tmp_path / "bump_seed0.json").read_text())
    assert payload["experiment"] == "bump"
    assert payload["eps2_inf"] == tiny_bump.eps2_inf
    lines = (tmp_path / "bump_seed0_fields.csv").read_text().splitlines()
    assert lines[0] == "x,y,z,analytic,inf,truncated,image"
    assert len(lines) == 1 + len(tiny_bump.points)


@pytest.fixture(scope="module")
def tiny_dip():
    return run_dip_experiment(
        h=0.5,
        ratios=(1.2, 1.6),
        target_edge=0.3,
        eps=1e-3,
        reference_ratio=1.5,
        reference_eps=1e-4,
        reference_edge=0.22,
        grid_shape=(5, 8),
    )


def test_dip_experiment_smoke(tiny_dip, tmp_path):
    rep = tiny_dip
    assert np.all(rep.eps2_inf < rep.eps2_truncated)
    paths = write_report(rep, tmp_path)
    assert any(p.endswith("dip_seed0_sweep.csv") for p in paths)
    sweep = (tmp_path / "dip_seed0_sweep.csv").read_text().splitlines()
    assert sweep[0] == "ratio,eps2_inf,eps2_truncated,n_panels"
    assert len(sweep) == 3


@pytest.fixture(scope="module")
def tiny_curve():
    return measure_cost_curve(ratios=(2.0, 3.0), n_receivers=4, n_sources=8, repeats=1)


@pytest.mark.parametrize("fixture, files, header, int_columns, rows", [
    ("tiny_bump", ("bump_seed0.json", "bump_seed0_fields.csv"),
     "x,y,z,analytic,inf,truncated,image", (),
     lambda r: np.column_stack([r.points, r.analytic, r.fields["inf"],
                                r.fields["truncated"], r.fields["image"]])),
    ("tiny_dip", ("dip_seed0.json", "dip_seed0_sweep.csv"),
     "ratio,eps2_inf,eps2_truncated,n_panels", (3,),
     lambda r: np.column_stack([r.ratios, r.eps2_inf, r.eps2_truncated, r.n_panels])),
    ("small_map", ("accuracy_map_seed3.json", "accuracy_map_seed3_table.csv"),
     "ratio,p,eps2", (1,),
     lambda r: np.asarray([(ratio, p, r.eps2[i, j]) for i, ratio in enumerate(r.ratios)
                           for j, p in enumerate(r.p_values)])),
    ("tiny_curve", ("cost_curve_seed0.json", "cost_curve_seed0_curve.csv"),
     "ratio,p,seconds", (1,),
     lambda r: np.column_stack([r.ratios, r.p_values, r.seconds])),
], ids=["bump", "dip", "accuracy-map", "cost-curve"])
def test_write_report_on_every_report_type(fixture, files, header, int_columns, rows,
                                           request, tmp_path):
    # one generic writer: the summary as JSON, the table as CSV with repr
    # floats that read back exactly and integer columns as integers
    report = request.getfixturevalue(fixture)
    paths = write_report(report, tmp_path)
    assert paths == [str(tmp_path / f) for f in files]
    payload = json.loads((tmp_path / files[0]).read_text())
    assert payload == json.loads(json.dumps(report.summary(), default=float))
    text = (tmp_path / files[1]).read_text()
    assert "np." not in text
    lines = text.splitlines()
    assert lines[0] == header
    cells = [line.split(",") for line in lines[1:]]
    for k in int_columns:
        assert all(str(int(row[k])) == row[k] for row in cells)
    assert np.array_equal(np.asarray(cells, dtype=float), rows(report))


def test_write_csv_formats_numpy_scalars(tmp_path):
    path = tmp_path / "t.csv"
    assert write_csv(path, ("a", "b", "c"),
                     ([np.float64(0.1), 2.0], [True, False], [np.int32(3), 4])) == path
    assert path.read_text() == "a,b,c\n0.1,1,3\n2.0,0,4\n"
    with pytest.raises(DomainError, match="2 header names for 3 columns"):
        write_csv(path, ("a", "b"), ([1.0], [2.0], [3.0]))


def test_bump_error_decreases_under_refinement(tiny_bump):
    finer = run_bump_experiment(h=2.0, delta=0.25, target_edge=0.2, eps=1e-3,
                                grid_shape=(6, 8))
    assert finer.eps2_inf < tiny_bump.eps2_inf


@pytest.mark.parametrize("study, kwargs, meshes", [
    # the bump mesh and the mirrored sphere
    (run_bump_experiment,
     dict(h=2.0, delta=0.25, target_edge=0.35, eps=1e-3, grid_shape=(6, 8)), 2),
    # two dip ratios and the reference
    (run_dip_experiment,
     dict(h=0.5, ratios=(1.2, 1.6), target_edge=0.3, eps=1e-3, reference_ratio=1.5,
          reference_eps=1e-4, reference_edge=0.22, grid_shape=(5, 8)), 3),
], ids=["bump", "dip"])
def test_studies_build_and_factor_each_free_block_once(study, kwargs, meshes, monkeypatch):
    # the kernel and truncated systems of one mesh share its free block and
    # near-field LU, each made once; the truncated field equals that of a
    # separately assembled kernel-off system bit for bit
    built, truncated = [], []
    real_block, real_field = bem._hmatrix, experiments.evaluate_field
    splu = SpluSpy(bem.splu)

    def free_block(mesh, *args):
        built.append(mesh)
        return real_block(mesh, *args)

    def field(system, points, source=None):
        grid = real_field(system, points, source=source)
        if system.domain is None and source is not None:
            truncated.append((system.mesh, points, source, grid.values))
        return grid

    with monkeypatch.context() as m:
        m.setattr(bem, "_hmatrix", free_block)
        m.setattr(bem, "splu", splu)
        m.setattr(experiments, "evaluate_field", field)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            study(**kwargs)
    assert len(built) == meshes and len({id(mesh) for mesh in built}) == meshes
    assert sorted(near.shape[0] for near, _ in splu.calls) == sorted(len(mesh) for mesh in built)
    assert len(truncated) == meshes - 1
    for mesh, points, source, values in truncated:
        reference = assemble(mesh, None, BemConfig())
        set_point_source_rhs(reference, source)
        solve(reference)
        assert np.array_equal(evaluate_field(reference, points, source=source).values, values)


def test_power_law_fit():
    ratios = np.array([1.1, 1.3, 1.6, 2.0])
    slope, c = fit_power_law(ratios, 0.05 * ratios**-3)
    assert slope == pytest.approx(-3.0, abs=1e-12)
    assert c == pytest.approx(0.05, rel=1e-12)
