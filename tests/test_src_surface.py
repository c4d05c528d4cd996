"""`src/` holds only what the lab runs: every public top-level function and class,
and every public method of those classes, is used by other code in `src/`, or is on
an allow-list with its reason; and one function forks, and decides to."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "anchorlab"

# public names that no other code in src/ uses, each with why it stays
ALLOWED_UNREFERENCED = {
    "tensor.power": "criterion 1 checks its gradient against finite differences",
    "tensor.relu": "criterion 1 checks its gradient against finite differences",
    "tensor.cosine_sim": "criterion 1 checks its gradient against finite differences",
    "scene.read_manifest": "manifest format: reads what gen-data writes",
    "scene.regenerate_from_manifest": "manifest format: rebuilds the rasters a manifest names",
    "scene.make_composite": "perfbench's tracer tests pin its re-exports",
    "additivity.triple_rasters": "gate instrument: one standard probe triple",
    "evaluation.prototype_predict": "gate instrument: zero-shot prediction from rasters",
    "evaluation.retention_eval": "gate instrument: background information kept",
    "cli.ExperimentConfig.to_json": "the writer side of `from_json`: a config round-trips",
    "tensor.Tensor.item": "the tests read a scalar loss with it, as numpy's `item` does",
}


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
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    total = sum((_uses(tree) for tree in trees.values()), Counter())
    return {name for module, tree in trees.items() for name, node in _public(module, tree)
            if total[node.name] == _uses(node)[node.name]}


def test_every_public_name_in_src_is_used_or_allowed():
    assert unreferenced_public_names() == set(ALLOWED_UNREFERENCED)


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
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    fork_shares = next(node for node in trees["cli"].body
                       if isinstance(node, ast.FunctionDef) and node.name == "_fork_shares")
    assert set(_fork_sites(fork_shares)) == {"ProcessPoolExecutor", 'get_context("fork")'}
    assert {module: _fork_sites(tree) for module, tree in trees.items() if _fork_sites(tree)} \
        == {"cli": _fork_sites(fork_shares)}


def test_only_fork_shares_asks_whether_to_fork():
    # `cli._fork_shares` alone decides whether to fork; a caller that asks `_may_fork`
    # itself makes a second decision, which a switch such as `cli._may_fork = lambda:
    # False` would have to reach too
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    fork_shares = next(node for node in trees["cli"].body
                       if isinstance(node, ast.FunctionDef) and node.name == "_fork_shares")

    def asks(node) -> int:
        return sum(isinstance(n, ast.Call) and _uses(n.func)["_may_fork"] > 0
                   for n in ast.walk(node))

    assert asks(fork_shares) == 1
    assert {module: asks(tree) for module, tree in trees.items() if asks(tree)} == {"cli": 1}
