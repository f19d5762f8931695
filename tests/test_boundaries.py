"""The names the benchmark's tracer (``bench/tracing.py``) binds in the
program: a refactor that renames or folds one of them must fail here rather
than silently blank a per-layer metric."""

import importlib
import importlib.util
import inspect
from pathlib import Path
from types import SimpleNamespace

from skewarm import deciders, skewpoly

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
MODULES = ("rings", "skewpoly", "deciders", "formats", "corpus", "cli")


def load_tracing():
    spec = importlib.util.spec_from_file_location("skewarm_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_is_bound():
    tracing = load_tracing()
    prog = SimpleNamespace(**{m: importlib.import_module(f"skewarm.{m}") for m in MODULES})
    original = deciders.check_armendariz_family
    tracer = tracing.Tracer(prog)
    tracer.install()
    try:
        assert tracer.missing == []
        assert deciders.check_armendariz_family is not original
    finally:
        tracer.uninstall()
    assert deciders.check_armendariz_family is original


def test_search_entry_points_keep_the_traced_parameters():
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(deciders.check_armendariz_family) == [
        "ring", "alpha", "degree", "variant", "budget",
    ]
    assert params(deciders.check_laurent_q_alpha_skew) == ["ring", "alpha", "window", "budget"]
    assert params(deciders.check_powerseries_q_alpha_skew) == [
        "ring", "alpha", "truncation", "laurent", "min_exp", "budget",
    ]


def test_sandwich_quantifiers_and_products_are_traceable():
    for name in ("forall_sandwich_zero", "forall_sandwich_zero_laurent", "forall_sandwich_zero_series"):
        assert callable(getattr(skewpoly, name))
        # the deciders call them through their own module globals
        assert getattr(deciders, name) is getattr(skewpoly, name)
    for cls in (skewpoly.SkewPoly, skewpoly.LaurentSkewPoly, skewpoly.TruncatedSkewSeries):
        assert "__mul__" in vars(cls)
