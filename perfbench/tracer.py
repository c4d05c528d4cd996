"""In-memory span tracer that wraps anchorlab's public functions from outside.

`Tracer.install()` replaces every public module-level function and every
public method of the classes defined in each layer module with a wrapper that
records a span (name, start, end, parent).  References that other anchorlab
modules hold through `from .x import f` are replaced too, so a call is traced
whichever name it goes through.  Nothing in the package's source changes.

`analyse()` turns the spans into self times, a stage table and the per-layer
metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

# The package's modules, in pipeline order; a span's layer is its first name part.
LAYERS = ("tensor", "encoders", "scene", "anchors", "alignment", "evaluation",
          "additivity", "cli")

# A span belongs to the stage of its nearest ancestor-or-self listed here, and
# to "other" when there is none.  The lazily built teacher gets its own stage
# even when the first method to need it triggers the build.
STAGE_OF = {
    "scene.gen_world": "world",
    "scene.split_backgrounds": "world",
    "scene.build_grouped_dataset": "world",
    "alignment.pretrain_teacher": "teacher",
    "encoders.planted_teacher": "teacher",
    "anchors.build_anchor_set": "anchors",
    "anchors.compute_prototypes": "anchors",
    "alignment.train_bap": "bap",
    "alignment.train_control": "control",
    "alignment.train_orthogonal": "ortho",
    "alignment.finetune_on_correlated": "lp-ft",
    "cli.evaluate_method": "probes",
    "evaluation.bsi_protocol": "bsi",
    "additivity.run_probe": "additivity",
}
STAGES = ("world", "teacher", "anchors", "bap", "control", "ortho", "lp-ft",
          "probes", "bsi", "additivity", "other")

TRAINING = frozenset({"alignment.pretrain_teacher", "alignment.train_bap",
                      "alignment.train_control", "alignment.train_orthogonal",
                      "alignment.finetune_on_correlated"})

# (name, unit, better) of every per-layer metric; units "s" and "1/s" are
# timings, every other metric is a count that repeats exactly for one seed.
PER_LAYER = [
    ("tensor.adamw_step.calls", "count", "lower"),
    ("tensor.adamw_step.self_s", "s", "lower"),
    ("tensor.backward.calls", "count", "lower"),
    ("tensor.backward.self_s", "s", "lower"),
    ("tensor.matmul.calls", "count", "lower"),
    ("tensor.matmul.self_s", "s", "lower"),
    ("tensor.matmul.gflop", "GFLOP", "lower"),
    ("tensor.matmul.untracked_lhs_frac", "fraction", "lower"),
    ("tensor.gelu.self_s", "s", "lower"),
    ("encoders.encode_batch.calls", "count", "lower"),
    ("encoders.encode_batch.rows", "count", "lower"),
    ("encoders.encode_batch.self_s", "s", "lower"),
    ("encoders.freeze.calls", "count", "lower"),
    ("encoders.freeze.self_s", "s", "lower"),
    ("scene.composite.calls", "count", "lower"),
    ("scene.composite.self_s", "s", "lower"),
    ("scene.composite.per_s", "1/s", "higher"),
    ("scene.resize_sinc.calls", "count", "lower"),
    ("scene.resize_sinc.self_s", "s", "lower"),
    ("scene.resize_sinc.distinct_frac", "fraction", "lower"),
    ("scene.build_grouped_dataset.s", "s", "lower"),
    ("scene.gen_world.s", "s", "lower"),
    ("anchors.build_anchor_set.s", "s", "lower"),
    ("alignment.pretrain_teacher.s", "s", "lower"),
    ("alignment.train_bap.s", "s", "lower"),
    ("alignment.train_control.s", "s", "lower"),
    ("alignment.train_orthogonal.s", "s", "lower"),
    ("alignment.finetune_on_correlated.s", "s", "lower"),
    ("alignment.render_s", "s", "lower"),
    ("alignment.steps", "count", "lower"),
    ("evaluation.train_probe.s", "s", "lower"),
    ("evaluation.bsi_protocol.s", "s", "lower"),
    ("evaluation.predict.s", "s", "lower"),
    ("additivity.batch_additivity.s", "s", "lower"),
    ("additivity.triple_rasters.s", "s", "lower"),
    ("cli.evaluate_method.s", "s", "lower"),
    ("cli.seed_max_s", "s", "lower"),
    ("cli.seed_mean_s", "s", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    *[(f"stage.{stage}.s", "s", "lower") for stage in STAGES],
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]
TIMING_UNITS = ("s", "1/s")


def _matmul_hook(tr: "Tracer", idx: int, args, kwargs) -> None:
    a, b = args[0], args[1]
    if a.data.ndim == 2 and b.data.ndim == 2:
        tr.matmul_flop += 2 * a.data.shape[0] * a.data.shape[1] * b.data.shape[1]
    if tr.tensor_module._ACTIVE_TAPE is not None and (a._tracked or b._tracked):
        tr.matmul_taped += 1
        if not a._tracked:
            tr.matmul_untracked_lhs += 1


def _encode_batch_hook(tr: "Tracer", idx: int, args, kwargs) -> None:
    batch = args[1] if len(args) > 1 else kwargs["batch"]
    shape = getattr(batch, "shape", None)
    if shape is None:
        tr.encode_rows += len(batch)
    else:
        tr.encode_rows += 1 if len(shape) == 3 else shape[0]


def _resize_hook(tr: "Tracer", idx: int, args, kwargs) -> None:
    img = args[0]
    out_hw = args[1] if len(args) > 1 else kwargs["out_hw"]
    # Holding the array keeps its id from being reused by a later input.
    tr.resize_inputs.setdefault((id(img), tuple(out_hw)), img)


def _seed_key_hook(tr: "Tracer", idx: int, args, kwargs) -> None:
    tr.keys[idx] = args[0].seed


HOOKS = {
    "tensor.matmul": _matmul_hook,
    "encoders.encode_batch": _encode_batch_hook,
    "scene.resize_sinc": _resize_hook,
    "cli.evaluate_method": _seed_key_hook,
    "cli.SeedContext.datasets": _seed_key_hook,
}


class Tracer:
    """Spans of one traced call, kept in memory as parallel lists."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.keys: dict[int, object] = {}
        self.matmul_flop = 0
        self.matmul_taped = 0
        self.matmul_untracked_lhs = 0
        self.encode_rows = 0
        self.resize_inputs: dict[tuple, object] = {}
        self.originals: list = []
        self.tensor_module = None
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        names, starts, ends, parents, stack = (self.names, self.starts, self.ends,
                                               self.parents, self._stack)
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            if hook is not None:
                hook(self, idx, args, kwargs)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        self.originals.append(fn)
        return traced

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every public function and method of the layer modules."""
        self.tensor_module = importlib.import_module("anchorlab.tensor")
        wrapped: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"anchorlab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    for name, meth in list(vars(obj).items()):
                        if not name.startswith("_") and inspect.isfunction(meth):
                            self._patch(obj, name,
                                        self._wrap(f"{layer}.{obj.__name__}.{name}", meth))
        for modname, mod in list(sys.modules.items()):
            if modname != "anchorlab" and not modname.startswith("anchorlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = wrapped.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patch(mod, attr, entry[1])
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def dump(self, path) -> None:
        """Write the spans as JSON: a name table and [name, start, end, parent] rows."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        rows = [[index[n], round(s, 7), round(e, 7), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        with open(path, "w") as fh:
            json.dump({"names": table, "spans": rows}, fh, separators=(",", ":"))


def analyse(tr: Tracer) -> dict:
    """Per-function table, stage table and per-layer metrics from the spans."""
    n = len(tr.names)
    names, parents = tr.names, tr.parents
    dur = [e - s for s, e in zip(tr.starts, tr.ends)]
    child = [0.0] * n
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += dur[i]
    stage = [""] * n
    training = [False] * n
    functions: dict[str, list] = {}
    stages = dict.fromkeys(STAGES, 0.0)
    layers = dict.fromkeys(LAYERS, 0.0)
    seeds: dict[object, float] = {}
    render_s = 0.0
    steps = 0
    for i in range(n):
        name, p = names[i], parents[i]
        self_s = dur[i] - child[i]
        stage[i] = STAGE_OF.get(name) or (stage[p] if p >= 0 else "other")
        training[i] = name in TRAINING or (p >= 0 and training[p])
        stages[stage[i]] += self_s
        layers[name.split(".", 1)[0]] += self_s
        rec = functions.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += dur[i]
        rec[2] += self_s
        if p < 0:
            continue
        if training[p] and name.startswith("scene.") and not names[p].startswith("scene."):
            render_s += dur[i]
        if name == "tensor.AdamW.step" and training[p]:
            steps += 1
        if i in tr.keys and names[p] == "cli.cmd_run_matrix":
            seeds[tr.keys[i]] = seeds.get(tr.keys[i], 0.0) + dur[i]
    wall = sum(d for d, p in zip(dur, parents) if p < 0)

    def calls(name):
        return functions.get(name, (0, 0.0, 0.0))[0]

    def total(*fnames):
        return sum(functions.get(f, (0, 0.0, 0.0))[1] for f in fnames)

    def self_time(name):
        return functions.get(name, (0, 0.0, 0.0))[2]

    composite_s = total("scene.composite")
    m = {
        "tensor.adamw_step.calls": calls("tensor.AdamW.step"),
        "tensor.adamw_step.self_s": self_time("tensor.AdamW.step"),
        "tensor.backward.calls": calls("tensor.GradTape.backward"),
        "tensor.backward.self_s": self_time("tensor.GradTape.backward"),
        "tensor.matmul.calls": calls("tensor.matmul"),
        "tensor.matmul.self_s": self_time("tensor.matmul"),
        "tensor.matmul.gflop": tr.matmul_flop / 1e9,
        "tensor.matmul.untracked_lhs_frac":
            tr.matmul_untracked_lhs / tr.matmul_taped if tr.matmul_taped else 0.0,
        "tensor.gelu.self_s": self_time("tensor.gelu"),
        "encoders.encode_batch.calls": calls("encoders.encode_batch"),
        "encoders.encode_batch.rows": tr.encode_rows,
        "encoders.encode_batch.self_s": self_time("encoders.encode_batch"),
        "encoders.freeze.calls": calls("encoders.freeze"),
        "encoders.freeze.self_s": self_time("encoders.freeze"),
        "scene.composite.calls": calls("scene.composite"),
        "scene.composite.self_s": self_time("scene.composite"),
        "scene.composite.per_s": calls("scene.composite") / composite_s if composite_s else 0.0,
        "scene.resize_sinc.calls": calls("scene.resize_sinc"),
        "scene.resize_sinc.self_s": self_time("scene.resize_sinc"),
        "scene.resize_sinc.distinct_frac":
            len(tr.resize_inputs) / calls("scene.resize_sinc")
            if calls("scene.resize_sinc") else 0.0,
        "scene.build_grouped_dataset.s": total("scene.build_grouped_dataset"),
        "scene.gen_world.s": total("scene.gen_world"),
        "anchors.build_anchor_set.s": total("anchors.build_anchor_set"),
        **{f"{f}.s": total(f) for f in sorted(TRAINING)},
        "alignment.render_s": render_s,
        "alignment.steps": steps,
        "evaluation.train_probe.s": total("evaluation.train_probe"),
        "evaluation.bsi_protocol.s": total("evaluation.bsi_protocol"),
        "evaluation.predict.s": total("evaluation.probe_predict", "evaluation.prototype_predict"),
        "additivity.batch_additivity.s": total("additivity.batch_additivity"),
        "additivity.triple_rasters.s": total("additivity.triple_rasters"),
        "cli.evaluate_method.s": total("cli.evaluate_method"),
        "cli.seed_max_s": max(seeds.values(), default=0.0),
        "cli.seed_mean_s": sum(seeds.values()) / len(seeds) if seeds else 0.0,
        **{f"{layer}.self_s": s for layer, s in layers.items()},
        **{f"stage.{st}.s": s for st, s in stages.items()},
        "trace.wall_s": wall,
        "trace.spans": n,
    }
    return {"metrics": m,
            "functions": {k: {"calls": c, "total_s": t, "self_s": s}
                          for k, (c, t, s) in sorted(functions.items())},
            "stages": stages}
