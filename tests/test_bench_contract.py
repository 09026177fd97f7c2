"""The benchmark's hold on the package: every symbol ``perfbench`` wraps
or calls still exists.  A traced benchmark run leaves out each per-layer
metric whose wrapped function is gone, so deleting or renaming one would
silently drop metrics.  These tests read ``perfbench/`` and change
nothing there."""

import importlib.util
import sys
from pathlib import Path

import ionjump.cli  # noqa: F401  (the tracer wraps functions of loaded modules only)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


def test_every_traced_symbol_exists():
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_workload_setup_and_oracle_run():
    ctx = workloads.setup(4)
    assert ctx.ideal.shape == (ctx.layout.dim,)
    assert 0.0 < workloads.no_jump_fidelity(ctx, 7e-4) < 1.0
