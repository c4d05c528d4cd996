"""Tests of the benchmark's tracer.  Run: python3 -m pytest perfbench/tests -q"""

import importlib
import inspect
import json
import sys
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from anchorlab import cli  # noqa: E402


def _anchorlab_modules():
    return [m for name, m in sys.modules.items()
            if name == "anchorlab" or name.startswith("anchorlab.")]


def _held_functions(mod):
    """Every function a module holds: attributes, class members, dict values, defaults."""
    for attr, obj in vars(mod).items():
        yield f"{mod.__name__}.{attr}", obj
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for name, member in vars(obj).items():
                yield f"{mod.__name__}.{attr}.{name}", member
        elif isinstance(obj, dict):
            for key, value in obj.items():
                yield f"{mod.__name__}.{attr}[{key!r}]", value
        if inspect.isfunction(obj):
            for i, default in enumerate(obj.__defaults__ or ()):
                yield f"{mod.__name__}.{attr} default {i}", default


def test_no_module_keeps_an_unwrapped_original():
    with tracer.Tracer() as tr:
        originals = {id(f) for f in tr.originals}
        held = [(where, obj) for mod in _anchorlab_modules() for where, obj in _held_functions(mod)]
        assert [where for where, obj in held if id(obj) in originals] == []
        wrappers = [obj for _, obj in held if id(getattr(obj, "__wrapped__", None)) in originals]
        for layer in tracer.LAYERS:
            mod = importlib.import_module(f"anchorlab.{layer}")
            for attr, obj in vars(mod).items():
                own = getattr(obj, "__module__", None) == mod.__name__
                if own and inspect.isfunction(obj) and not attr.startswith("_"):
                    assert hasattr(obj, "__wrapped__"), f"{layer}.{attr} is not traced"
    # uninstall puts every original back
    wrapper_ids = {id(w) for w in wrappers}
    assert [where for mod in _anchorlab_modules()
            for where, obj in _held_functions(mod) if id(obj) in wrapper_ids] == []


def test_imported_aliases_are_traced():
    from anchorlab import additivity, alignment, anchors, evaluation, scene

    with tracer.Tracer():
        assert alignment.make_composite is scene.make_composite
        assert additivity.make_composite is scene.make_composite
        assert anchors.composite is scene.composite
        assert evaluation.composite is scene.composite
        assert hasattr(scene.composite, "__wrapped__")


def _traced_tiny(out):
    cfg = cli.ExperimentConfig(**workloads.TINY)
    with tracer.Tracer() as tr:
        cli.cmd_run_matrix(cfg, workloads.TINY_SEED, out)
    return tr


def test_two_traced_runs_give_identical_span_counts(tmp_path):
    a = _traced_tiny(tmp_path / "a")
    b = _traced_tiny(tmp_path / "b")
    assert Counter(a.names) == Counter(b.names)
    assert a.names[0] == "cli.cmd_run_matrix" and a.parents.count(-1) == 1
    ma, mb = tracer.analyse(a)["metrics"], tracer.analyse(b)["metrics"]
    for name, unit, _ in tracer.PER_LAYER:
        if unit not in tracer.TIMING_UNITS and name in ma:
            assert ma[name] == mb[name], name


def test_tracing_leaves_the_output_bytes_unchanged(tmp_path):
    _traced_tiny(tmp_path / "traced")
    cli.cmd_run_matrix(cli.ExperimentConfig(**workloads.TINY), workloads.TINY_SEED,
                       tmp_path / "plain")
    for name in ("metrics.csv", "summary.csv"):
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_stages_sum_to_the_traced_wall_time(tmp_path):
    analysis = tracer.analyse(_traced_tiny(tmp_path))
    wall = analysis["metrics"]["trace.wall_s"]
    assert abs(sum(analysis["stages"].values()) - wall) < 1e-6
    layers = sum(analysis["metrics"][f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert abs(layers - wall) < 1e-6
    assert analysis["metrics"]["stage.bap.s"] > 0


def test_additivity_takes_no_optimizer_step(tmp_path):
    cfg = cli.ExperimentConfig(**workloads.TINY)
    with tracer.Tracer() as tr:
        cli.cmd_probe_additivity(cfg, 0, tmp_path)
    m = tracer.analyse(tr)["metrics"]
    assert m["tensor.adamw_step.calls"] == 0
    assert m["tensor.backward.calls"] == 0
    assert m["encoders.encode_batch.rows"] == 3 * cfg.additivity_n * len(cfg.additivity_alphas)
    assert m["stage.additivity.s"] > 0


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == [tuple(m) for m in tracer.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == [w for w in workloads.WORKLOADS
                                                      if w != "tiny"]
