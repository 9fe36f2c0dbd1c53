"""Names that the benchmark's tracer and the modules' __all__ lists promise
must exist, imports that no module leaves unread, the calls the benchmark's
workloads make, and construction work that the benchmark's set-up relies on
staying lazy."""

import ast
import contextlib
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scalarweyl"


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # a dataclass resolves its annotations through its module's entry here
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    # the traced benchmark run wraps these by name and raises on a missing
    # one; a refactor that deletes one should fail here first
    spans = _load_perfbench("spans")
    missing = [
        f"{module}.{name}"
        for module, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"scalarweyl.{module}"), name, None))
    ]
    assert not missing, missing


def test_benchmark_workloads_run_on_small_grids(monkeypatch):
    # one set-up and one pass of every workload, each grid shrunk to 8^4:
    # every call and keyword the benchmark makes into the package still works
    workloads = _load_perfbench("workloads")
    for name in ("CURVATURE_SIZE", "SOLVE_SIZE", "CONSTRUCT_SIZE"):
        monkeypatch.setattr(workloads, name, 8)
    for name, workload in workloads.WORKLOADS.items():
        inputs = workload.setup(0)
        assert workload.run_pass(inputs[0], contextlib.nullcontext), name


def test_every_exported_name_exists():
    # a name left in a module's __all__ after its code moved fails here
    import scalarweyl

    stale = []
    for info in pkgutil.iter_modules(scalarweyl.__path__):
        module = importlib.import_module(f"scalarweyl.{info.name}")
        stale += [
            f"{info.name}.{name}"
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not stale, stale


def test_no_module_imports_a_name_it_never_reads():
    # an import left behind after its last reader moved fails here; the
    # package's __init__ imports only to re-export
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.stem}.{name} (line {line})"
            for name, line in imported.items()
            if name not in read
        ]
    assert not unused, unused


# Parameters with a default over every def in the package.  A new option
# raises this bound in the same change, where its reason is stated.
MAX_DEFAULTED_PARAMETERS = 28


def test_defaulted_parameter_count_does_not_grow():
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        counts[path.stem] = sum(
            len(node.args.defaults) + sum(d is not None for d in node.args.kw_defaults)
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        )
    assert sum(counts.values()) <= MAX_DEFAULTED_PARAMETERS, counts


def test_metric_construction_forms_no_dense_inverse_or_det():
    # the dense form, the inverse and det are built when first read; the
    # first two at construction would double the set-up memory of every
    # metric, and a det nobody reads adds a grid array to the peak of
    # curvature_4d, whose sheared metric never reads its own
    from scalarweyl.grid import make_chart
    from scalarweyl.presets import fourier_metric

    g = fourier_metric(make_chart(4, (8,) * 4, (1.0,) * 4), seed=1)
    assert "dense" not in g.__dict__
    assert "inverse" not in g.__dict__
    assert "det" not in g.__dict__


def _traced_peak(run) -> int:
    """Bytes allocated by ``run`` at its peak, above what was held before."""
    import tracemalloc

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_streamed_curvature_scalars_hold_no_whole_grid_christoffel_field():
    # the slab loop holds a window of Gamma planes, never all of them: the
    # whole-grid packed Gamma alone is 320 bytes per point (measured at
    # 20^4: 344 bytes per point, against 657 with the whole field held)
    import numpy as np

    from scalarweyl.curvature import curvature_scalars
    from scalarweyl.grid import make_chart
    from scalarweyl.presets import fourier_metric

    g = fourier_metric(make_chart(4, (20,) * 4, (2 * np.pi,) * 4), amplitude=0.3, seed=3)
    g.inverse  # the stack reads it, and the metric keeps it
    per_point = _traced_peak(lambda: curvature_scalars(g)) / g.chart.npoints
    assert per_point <= 450, per_point


def test_curvature_bundle_holds_no_whole_grid_christoffel_field():
    # the bundle keeps Ricci, R and W (424 bytes per point at n = 4), and
    # no Riemann field; above them the peak holds one slab's transients and
    # window, 2^14 points, a quarter of a 16^4 grid (measured: 1125 bytes
    # per point, 701 above the kept fields).  A whole-grid packed Gamma
    # adds 320 bytes per point (measured: 1445)
    import numpy as np

    from scalarweyl.curvature import curvature_bundle
    from scalarweyl.grid import make_chart
    from scalarweyl.presets import fourier_metric

    g = fourier_metric(make_chart(4, (16,) * 4, (2 * np.pi,) * 4), amplitude=0.3, seed=3)
    g.inverse  # the stack reads it, and the metric keeps it
    kept = {}

    def run():
        b = curvature_bundle(g)
        kept.update(ric=b.ric, scal=b.scal, W=b.W.pair)

    peak = _traced_peak(run)
    npoints = g.chart.npoints
    kept_per_point = sum(field.nbytes for field in kept.values()) / npoints
    assert kept_per_point == 424
    assert peak / npoints <= kept_per_point + 900, peak / npoints


def test_streamed_scalar_weyl_peaks_below_half_the_bundle_route():
    # without a bundle the curvature stack runs slab by slab and keeps only
    # a window of Christoffel planes, R and |W|^2; the bundle route keeps
    # Ricci, R and W (measured at 20^4: 344 against 752 bytes per point)
    import numpy as np

    from scalarweyl.conformal import scalar_weyl
    from scalarweyl.curvature import curvature_bundle
    from scalarweyl.grid import make_chart
    from scalarweyl.presets import fourier_metric

    g = fourier_metric(make_chart(4, (20,) * 4, (2 * np.pi,) * 4), amplitude=0.3, seed=3)
    g.inverse  # both routes read it, and the metric keeps it

    streamed = _traced_peak(lambda: scalar_weyl(g, 1.0))
    bundled = _traced_peak(lambda: scalar_weyl(g, 1.0, bundle=curvature_bundle(g)))
    assert streamed < 0.5 * bundled, (streamed, bundled)


def test_splitting_a_slab_among_the_workers_adds_no_traced_peak(monkeypatch):
    # the workers share one slab and its window of Christoffel planes, so
    # the points in flight stay one slab's: a window per worker would add
    # 15 MB at 20^4.  The slack is the pool's bookkeeping, below one plane
    # of one pair-matrix field (2.3 MB); measured on a 2-core host: 52.52
    # to 52.54 MB with both workers, 52.50 MB with one
    import numpy as np

    from scalarweyl import grid
    from scalarweyl.conformal import scalar_weyl
    from scalarweyl.grid import make_chart
    from scalarweyl.presets import fourier_metric

    g = fourier_metric(make_chart(4, (20,) * 4, (2 * np.pi,) * 4), amplitude=0.3, seed=3)
    g.inverse  # the stack reads it, and the metric keeps it

    host = _traced_peak(lambda: scalar_weyl(g, 1.0))
    monkeypatch.setattr(grid, "_WORKERS", 1)
    one = _traced_peak(lambda: scalar_weyl(g, 1.0))
    assert host <= one + 2**20, (host, one)


def test_streamed_deformation_layer_peaks_below_half_the_whole_field_route():
    # the closed forms run slab by slab into whole-grid outputs; the
    # whole-field oracle forms every ingredient and factor on all planes
    # (measured at 20^4: 68 against 296 MB for the error tensor, 83
    # against 334 MB for the energy)
    import numpy as np

    from oracles import whole_field_energy, whole_field_weyl_error
    from scalarweyl.deformation import deform, deformation_energy, weyl_error
    from scalarweyl.grid import make_chart
    from scalarweyl.presets import fourier_metric, fourier_scalar

    chart = make_chart(4, (20,) * 4, (2 * np.pi,) * 4)
    g = fourier_metric(chart, amplitude=0.05, seed=3)
    f = fourier_scalar(chart, amplitude=0.3, seed=103)
    b = deform(g, f)
    g.sqrt_det  # both energy routes read it, and the metric keeps it

    streamed = _traced_peak(lambda: weyl_error(b))
    whole = _traced_peak(lambda: whole_field_weyl_error(b))
    assert streamed < 0.5 * whole, (streamed, whole)
    streamed = _traced_peak(lambda: deformation_energy(g, f, 1.0, base=b.base))
    whole = _traced_peak(lambda: whole_field_energy(g, f, 1.0, b.base))
    assert streamed < 0.5 * whole, (streamed, whole)


def test_only_grid_constructs_a_thread_pool():
    # one pool serves every split, so a split inside a part runs inline
    # instead of waiting for a pool of its own
    builders = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "ThreadPoolExecutor":
                    builders.add(path.name)
    assert builders == {"grid.py"}, builders


def test_split_apply_peaks_below_the_serial_apply_plus_one_flux_buffer():
    # the split apply holds the n flux components whole while its parts
    # form them, where the serial oracle holds one at a time; both hold
    # every derivative of u (measured at 20^4 on a 2-core host: 72 bytes
    # per point split and with one worker, 64 serial; the flux components
    # alone are 32)
    import numpy as np

    from oracles import whole_field_flux_laplacian
    from scalarweyl.grid import FluxForm, flux_laplacian, make_chart
    from scalarweyl.presets import fourier_metric, fourier_scalar

    chart = make_chart(4, (20,) * 4, (2 * np.pi,) * 4)
    form = FluxForm.of(fourier_metric(chart, amplitude=0.2, seed=3))
    u = fourier_scalar(chart, amplitude=0.5, seed=4)
    split = _traced_peak(lambda: flux_laplacian(form, u))
    serial = _traced_peak(lambda: whole_field_flux_laplacian(form, u))
    flux = chart.n * chart.npoints * 8
    assert split <= serial + flux, (split, serial, flux)


def test_one_flux_apply_is_2n_axis_products_and_at_most_one_split(monkeypatch):
    # every derivative of the apply is a whole-field matrix product on
    # either scheme; no stencil, window or ghost copy, and only the
    # pointwise flux sums go to the pool
    import numpy as np

    from scalarweyl import grid
    from scalarweyl.presets import fourier_metric, fourier_scalar

    for scheme in ("fd4", "spectral"):
        chart = grid.make_chart(4, (8, 10, 8, 12), (1.0, 2.0, 3.0, 4.0), scheme)
        form = grid.FluxForm.of(fourier_metric(chart, amplitude=0.2, seed=3))
        u = fourier_scalar(chart, amplitude=0.5, seed=4)
        calls = []
        with monkeypatch.context() as patch:
            for name in ("_axis_product", "window", "deriv_window", "_in_parts"):
                real = getattr(grid, name)

                def counted(*args, _name=name, _real=real):
                    calls.append(_name)
                    return _real(*args)

                patch.setattr(grid, name, counted)
            grid.flux_laplacian(form, u)
        assert calls.count("_axis_product") == 2 * chart.n, (scheme, calls)
        assert calls.count("_in_parts") <= 1, (scheme, calls)
        assert set(calls) <= {"_axis_product", "_in_parts"}, (scheme, calls)


def test_one_derivative_is_one_axis_product(monkeypatch):
    # every derivative is one whole-field matrix product on either scheme,
    # along every axis, of whole fields and of windows, wrapping or not
    import numpy as np

    from scalarweyl import grid

    for scheme in ("fd4", "spectral"):
        chart = grid.make_chart(3, (10, 8, 12), (1.0, 2.0, 3.0), scheme)
        x = np.random.default_rng(3).standard_normal(chart.sizes + (2,))
        ranges = [slice(None)] if scheme == "spectral" else [slice(3, 6), slice(0, 2), slice(None)]
        windows = [grid.window(chart, x, planes) for planes in ranges]
        calls = []
        real = grid._axis_product

        def counted(*args):
            calls.append(args[2])
            return real(*args)

        with monkeypatch.context() as patch:
            patch.setattr(grid, "_axis_product", counted)
            for axis in range(chart.n):
                grid.deriv(chart, x, axis)
                assert calls == [axis], (scheme, calls)
                for win in windows:
                    calls.clear()
                    grid.deriv_window(chart, win, axis)
                    assert calls == [axis], (scheme, calls)
                calls.clear()


def test_yamabe_writes_no_stencil_and_its_penalty_is_n_axis_products(monkeypatch):
    # each scheme's difference stencils are written once, in ``grid``:
    # ``yamabe`` reads no chart scheme, names none, and imports no stencil,
    # ghost-plane or pool helper
    import numpy as np

    from scalarweyl import grid, yamabe

    tree = ast.parse((PACKAGE / "yamabe.py").read_text())
    scheme = [
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "scheme")
        or (isinstance(node, ast.Constant) and node.value in ("fd4", "spectral"))
    ]
    assert not scheme, scheme
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    helpers = {"_in_parts", "_fd4", "window"}
    assert not imported & helpers, imported & helpers
    # one penalty apply is one whole-field circulant product per axis and
    # goes to no pool
    for sizes in ((8, 10, 12), (8, 12, 8, 10), (8, 10, 8, 12, 10)):
        rng = np.random.default_rng(2)
        dens = 1.0 + 0.5 * rng.random(sizes)
        phi = rng.standard_normal(sizes)
        calls = []
        with monkeypatch.context() as patch:
            patched = ((yamabe, "_axis_product"), (grid, "_axis_product"), (grid, "_in_parts"))
            for module, name in patched:
                real = getattr(module, name)

                def counted(*args, _name=name, _real=real):
                    calls.append(_name)
                    return _real(*args)

                patch.setattr(module, name, counted)
            yamabe._penalty_apply(dens, 0.7)(phi)
        assert calls == ["_axis_product"] * len(sizes), (sizes, calls)


def test_src_uses_no_fft():
    # every periodic per-axis linear map is one matrix product per axis
    # (``grid._axis_product``): the spectral derivative and the solver's
    # preconditioner; an FFT route in any module fails here
    fft = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Attribute) and node.attr == "fft")
        or (isinstance(node, ast.ImportFrom) and "fft" in (node.module or ""))
        or (isinstance(node, ast.Import) and any("fft" in a.name for a in node.names))
    ]
    assert not fft, fft


def test_preconditioner_call_peaks_at_two_fields():
    # one call allocates its result, the products alternating between it
    # and a buffer the preconditioner owns (measured at 20^4: 1.0 field;
    # the rfftn/irfftn route peaked at 3.3)
    import numpy as np

    from scalarweyl.grid import FluxForm, make_chart
    from scalarweyl.presets import fourier_metric
    from scalarweyl.yamabe import _preconditioner

    chart = make_chart(4, (20,) * 4, (2 * np.pi,) * 4)
    form = FluxForm.of(fourier_metric(chart, amplitude=0.2, seed=3))
    r = np.random.default_rng(1).standard_normal(chart.sizes)
    precond = _preconditioner(form, 0.2)(np.ones(chart.sizes))
    peak = _traced_peak(lambda: precond(r))
    assert peak <= 2 * chart.npoints * 8, peak / (chart.npoints * 8)
