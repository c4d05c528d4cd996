"""`src/` holds only what the lab runs: every public top-level function and class,
and every public method of those classes, is used by other code in `src/`, or is on
an allow-list with its reason; every parameter of a public function, every field of
a dataclass and every public module-level constant is read, or the constant is on an
allow-list with its reason; every defaulted parameter is set by some call in `src/`,
and every default is taken by one, or is on an allow-list with its reason; one
function forks, and decides to; `scene.render` builds every encoded raster batch;
and `tensor._cube` is the one `** 3`.

The guards match by name, not by type: a call counts for every function of its
callee's name, and a use counts for every definition of its name.  So a public
member that shares its name with a numpy attribute read in `src/`, such as
`Tensor.size` or `Tensor.shape`, is never flagged as unused, whatever reads it."""

import ast
from collections import Counter
from functools import cache
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "anchorlab"

# public names that no other code in src/ uses, each with why it stays
ALLOWED_UNREFERENCED = {
    "scene.regenerate_from_manifest": "manifest format: rebuilds the rasters a manifest names",
    "scene.make_composite": "perfbench's tracer tests pin its re-exports",
}

# `module.Class.field` of dataclass fields that no code in src/ reads, each with why it
# stays; none today
ALLOWED_UNREAD_FIELDS: dict[str, str] = {}

# `module.NAME` of public module-level constants that no code in src/ reads, each with
# why it stays; none today
ALLOWED_UNREAD_CONSTANTS: dict[str, str] = {}


@cache
def _trees() -> dict[str, ast.Module]:
    """The parsed tree of each module of `src/`, by module name: parsed once, and read,
    never changed, by every guard."""
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _uses(node) -> Counter:
    """How often each name is read, as a bare name or as an attribute, under `node`."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _public(module: str, tree):
    """(dotted name, node) of each public top-level function and class of a module,
    and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member


def unreferenced_public_names() -> set[str]:
    trees = _trees()
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    return {name for module, tree in trees.items() for name, node in _public(module, tree)
            if total[node.name] == _uses(node)[node.name]}


def test_every_public_name_in_src_is_used_or_allowed():
    assert unreferenced_public_names() == set(ALLOWED_UNREFERENCED)


def unread_parameters() -> set[str]:
    """`module.name(parameter)` of each parameter, but `self` and `cls`, of a public
    function or method in `src/` that its body, nested callbacks included, never reads."""
    trees = _trees()
    unread = set()
    for module, tree in trees.items():
        for name, node in _public(module, tree):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg,
                                          a.kwarg) if p is not None]
                read = {n.id for stmt in node.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread |= {f"{name}({p})" for p in params
                           if p not in read and p not in ("self", "cls")}
    return unread


def test_every_parameter_of_a_public_function_in_src_is_read():
    # a parameter nothing reads is a knob that turns nothing, and every caller must
    # still pass it
    assert unread_parameters() == set()


# `module.name(parameter)` of defaulted parameters that no call in src/ sets, each with
# why the option stays
ALLOWED_TEST_ONLY_OPTIONS = {
    "cli.main(argv)": "the console entry reads `sys.argv`",
    "encoders.planted_teacher(alpha)": "criterion 2 sets it; `probe-additivity` shares one "
                                       "draw across its alphas, where a redraw took 13-26 ms",
    "scene.degrade_mask(radius)": "criterion 9 checks radii 1 and 2",
}


def _defaulted(node: ast.FunctionDef, method: bool):
    """(name, position) of each defaulted parameter of `node`: its index among the
    arguments a call passes by position (past `self` or `cls` for a method but a
    static one), None for a keyword-only parameter."""
    a = node.args
    positional = [*a.posonlyargs, *a.args]
    bound = method and not any(_uses(d)["staticmethod"] for d in node.decorator_list)
    for i in range(len(positional) - len(a.defaults), len(positional)):
        yield positional[i].arg, i - bound
    yield from ((p.arg, None) for p, default in zip(a.kwonlyargs, a.kw_defaults) if default)


def _sets(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether `call` sets `param`: by keyword, by `**kwargs`, or, a positional
    parameter, by position or by `*args`."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and (position < len(call.args)
                                     or any(isinstance(a, ast.Starred) for a in call.args))


def _calls() -> list[ast.Call]:
    return [n for tree in _trees().values() for n in ast.walk(tree) if isinstance(n, ast.Call)]


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _passed_names() -> set[str]:
    """Each name `src/` loads, bare or as an attribute, other than as the function of a
    call or within an annotation: the functions and classes it passes as values."""
    skip = {id(call.func) for call in _calls()}
    for tree in _trees().values():
        for node in ast.walk(tree):
            hints = [node.annotation] if isinstance(node, (ast.arg, ast.AnnAssign)) else []
            hints += [node.returns] if isinstance(node, ast.FunctionDef) else []
            skip |= {id(n) for hint in hints if hint is not None for n in ast.walk(hint)}
    return {n.id if isinstance(n, ast.Name) else n.attr for tree in _trees().values()
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))
            and isinstance(n.ctx, ast.Load) and id(n) not in skip}


def _public_functions(module: str, tree):
    """(dotted name, node, the name a call to it has) of each public function and
    method of a module, and of the `__init__` of each public class."""
    for name, node in _public(module, tree):
        if isinstance(node, ast.FunctionDef):
            yield name, node, node.name
    for top in tree.body:
        if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and node.name == "__init__":
                    yield f"{module}.{top.name}.__init__", node, top.name


def unset_options() -> set[str]:
    """`module.name(parameter)` of each defaulted parameter of a public function or
    method in `src/`, `__init__` included, that no call in `src/` sets.  A call counts
    where its callee has the function's name (the class's for `__init__`); a function
    that `src/` passes as a value counts as set for any keyword some call passes."""
    calls = _calls()
    passed = _passed_names()
    keywords = {k.arg for call in calls for k in call.keywords}
    unset = set()
    for module, tree in _trees().items():
        for name, node, callee in _public_functions(module, tree):
            for param, position in _defaulted(node, method=name.count(".") == 2):
                if not (any(_callee(call) == callee and _sets(call, param, position)
                            for call in calls)
                        or node.name in passed and param in keywords):
                    unset.add(f"{name}({param})")
    return unset


def test_every_option_in_src_is_set_in_src_or_allowed():
    # an option that only tests set is a second way into its function that the lab
    # never takes
    assert unset_options() == set(ALLOWED_TEST_ONLY_OPTIONS)


# `module.name(parameter)` or `module.Class.field` of defaults that no call in src/
# takes, each with why the default stays; none today
ALLOWED_UNTAKEN_DEFAULTS: dict[str, str] = {}


def _field_defaults(node: ast.ClassDef):
    """(name, position) of each defaulted field of a dataclass: its index among the
    fields its `__init__` takes.  A `field(...)` with neither `default` nor
    `default_factory` gives none."""
    fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)]
    for i, stmt in enumerate(fields):
        value = stmt.value
        if value is None or (isinstance(value, ast.Call) and _uses(value.func)["field"]
                             and not {"default", "default_factory"}
                             & {k.arg for k in value.keywords}):
            continue
        yield stmt.target.id, i


def _takes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether `call` leaves `param` at its default: it passes `*args` or `**kwargs`,
    which count as taking it, or sets `param` neither by keyword nor by position."""
    if any(k.arg is None for k in call.keywords) or any(isinstance(a, ast.Starred)
                                                         for a in call.args):
        return True
    return (all(k.arg != param for k in call.keywords)
            and (position is None or position >= len(call.args)))


def untaken_defaults() -> set[str]:
    """`module.name(parameter)` of each defaulted parameter of a public function or
    method in `src/`, `__init__` included, and `module.Class.field` of each defaulted
    field of a public dataclass, that no call in `src/` leaves at its default.  A call
    counts where its callee has the function's name (the class's for `__init__` and
    fields); a function or class that `src/` passes as a value counts as taking all
    its defaults."""
    calls = _calls()
    passed = _passed_names()
    untaken = set()
    for module, tree in _trees().items():
        # (what the guard reports, the callee's name, the default's name and position)
        defaults = [(f"{name}({param})", callee, param, position)
                    for name, node, callee in _public_functions(module, tree)
                    for param, position in _defaulted(node, method=name.count(".") == 2)]
        defaults += [(f"{module}.{top.name}.{field}", top.name, field, position)
                     for top in tree.body if isinstance(top, ast.ClassDef)
                     and not top.name.startswith("_")
                     and any(_uses(decorator)["dataclass"] for decorator in top.decorator_list)
                     for field, position in _field_defaults(top)]
        untaken |= {label for label, callee, param, position in defaults
                    if callee not in passed
                    and not any(_callee(call) == callee and _takes(call, param, position)
                                for call in calls)}
    return untaken


def test_every_default_in_src_is_taken_in_src_or_allowed():
    # a default that every call overrides restates a value its callers decide, and
    # can contradict theirs
    assert untaken_defaults() == set(ALLOWED_UNTAKEN_DEFAULTS)


def _loaded_attributes(node) -> Counter:
    """How often each attribute is loaded under `node`, but where it is itself the
    function of a call: `ds.split` reads a field, `line.split(",")` calls a method."""
    called = {id(n.func) for n in ast.walk(node) if isinstance(n, ast.Call)}
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
                   and isinstance(n.ctx, ast.Load) and id(n) not in called)


def unread_dataclass_fields() -> set[str]:
    """`module.Class.field` of each field of a dataclass defined in `src/` whose name
    no code in `src/` loads as an attribute.  It works by name, so a field that shares
    its name with an attribute read elsewhere passes."""
    trees = _trees()
    read = sum((_loaded_attributes(tree) for tree in trees.values()), Counter())
    return {f"{module}.{node.name}.{stmt.target.id}"
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.ClassDef)
            and any(_uses(decorator)["dataclass"] for decorator in node.decorator_list)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and not read[stmt.target.id]}


def test_every_dataclass_field_in_src_is_read_or_allowed():
    # a field nothing reads is computed, stored and carried for no one
    assert unread_dataclass_fields() == set(ALLOWED_UNREAD_FIELDS)


def unread_constants() -> set[str]:
    """`module.NAME` of each public name that a top-level assignment of a module in
    `src/` binds and that no code in `src/` loads, as a name or as an attribute.  It
    works by name, as `unread_dataclass_fields` does."""
    trees = _trees()
    read = Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for tree in trees.values() for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))
    return {f"{module}.{n.id}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            for n in ast.walk(target)
            if isinstance(n, ast.Name) and not n.id.startswith("_") and not read[n.id]}


def test_every_constant_in_src_is_read_or_allowed():
    # a constant nothing reads is a second default beside the one the lab uses
    assert unread_constants() == set(ALLOWED_UNREAD_CONSTANTS)


def _fork_sites(node) -> Counter:
    """How often `node` names `ProcessPoolExecutor` or `fork`, or calls
    `get_context("fork")`."""
    sites = Counter()
    for n in ast.walk(node):
        name = (n.name if isinstance(n, ast.alias) else n.id if isinstance(n, ast.Name)
                else n.attr if isinstance(n, ast.Attribute) else None)
        if name in ("ProcessPoolExecutor", "fork"):
            sites[name] += 1
        if (isinstance(n, ast.Call) and _uses(n.func)["get_context"]
                and any(isinstance(a, ast.Constant) and a.value == "fork" for a in n.args)):
            sites['get_context("fork")'] += 1
    return sites


def test_one_function_in_src_forks():
    # every forked share runs through `cli._fork_shares`, whose contract (children
    # forked from a single-threaded, waiting caller) a second fork site would bypass
    trees = _trees()
    fork_shares = next(node for node in trees["cli"].body
                       if isinstance(node, ast.FunctionDef) and node.name == "_fork_shares")
    assert set(_fork_sites(fork_shares)) == {"ProcessPoolExecutor", 'get_context("fork")'}
    assert {module: _fork_sites(tree) for module, tree in trees.items() if _fork_sites(tree)} \
        == {"cli": _fork_sites(fork_shares)}


def test_only_fork_shares_asks_whether_to_fork():
    # `cli._fork_shares` alone decides whether to fork; a caller that asks `_may_fork`
    # itself makes a second decision, which a switch such as `cli._may_fork = lambda:
    # False` would have to reach too
    trees = _trees()
    fork_shares = next(node for node in trees["cli"].body
                       if isinstance(node, ast.FunctionDef) and node.name == "_fork_shares")

    def asks(node) -> int:
        return sum(isinstance(n, ast.Call) and _uses(n.func)["_may_fork"] > 0
                   for n in ast.walk(node))

    assert asks(fork_shares) == 1
    assert {module: asks(tree) for module, tree in trees.items() if asks(tree)} == {"cli": 1}


def raster_stacks() -> set[str]:
    """`module:line` of each `np.stack` call in `src/` whose arguments read an attribute
    `.raster` or call a function whose name contains `raster`."""
    trees = _trees()
    return {f"{module}:{n.lineno}" for module, tree in trees.items() for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "stack"
            and any(isinstance(a, ast.Attribute) and a.attr == "raster"
                    or isinstance(a, ast.Call) and any("raster" in name for name in _uses(a.func))
                    for arg in (*n.args, *(k.value for k in n.keywords)) for a in ast.walk(arg))}


def test_no_function_in_src_stacks_rasters():
    # `scene.render` is the one builder of raster batches: it writes each row once,
    # in float32, where a stack of `.raster` arrays, or of rows a raster-building
    # helper made, is a second builder (float64 for stripes)
    assert raster_stacks() == set()


def cube_sites() -> set[str]:
    """`module.function:line` of each `** 3` in `src/` outside `tensor._cube`, named by
    its top-level function or class."""
    trees = _trees()
    return {f"{module}.{getattr(top, 'name', '')}:{n.lineno}"
            for module, tree in trees.items() for top in tree.body for n in ast.walk(top)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
            and isinstance(n.right, ast.Constant) and n.right.value == 3
            and (module, getattr(top, "name", "")) != ("tensor", "_cube")}


def test_only_tensor_cube_cubes():
    # NumPy's float32 `x**3` takes a per-element path ~50x slower for each negative
    # element; `tensor._cube` gives the same bits without it
    assert cube_sites() == set()
