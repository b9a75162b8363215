"""Every public name in the package is used by the package or exported,
and no two of its functions share a body.

A public top-level function or class that nothing in ``src/paulievo``
references, or a public method that nothing there reads as an attribute,
and that ``paulievo.__all__`` does not list exists only for tests or for no
one.  Such a name belongs in ``tests/helpers.py`` or nowhere, unless it is
listed below with the reason it stays.
"""

import ast
import collections
import copy
import pathlib

import paulievo

PACKAGE = pathlib.Path(paulievo.__file__).parent

ALLOWED = {
    "opsum.PauliSum.coefficient": "public inspection of one term",
    "opsum.PauliSum.coefficients": "public inspection of every term",
    "opsum.PauliSum.insertion_index": "public inspection of a sum's lineage",
    "models.Hamiltonian.identity_coefficient":
        "public inspection of a Hamiltonian's constant",
    "pauli.Phase.value":
        "the value of the exported Phase that multiply returns",
    "propagate.Trajectory.final": "the run's last record, as README shows",
    "propagate.Trajectory.energies":
        "the energy curve, which the benchmark checks",
}


def _references(tree: ast.AST, attributes_only: bool = False
                ) -> collections.Counter:
    """How often each identifier is read as an attribute (``obj.name``)
    and, unless ``attributes_only``, as a name."""
    kinds = ast.Attribute if attributes_only else (ast.Name, ast.Attribute)
    return collections.Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree) if isinstance(node, kinds)
    )


def _public_definitions(tree: ast.Module):
    """``(qualified name, node)`` of each public top-level function and
    class and each public method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for member in node.body:
                    if (isinstance(member, defs)
                            and not member.name.startswith("_")):
                        yield f"{node.name}.{member.name}", member


def _package_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def unused_public_names() -> list[str]:
    """Qualified names defined public in the package that nothing else in
    it references and ``__all__`` does not export."""
    trees = _package_trees()
    total = {method: sum((_references(t, method) for t in trees.values()),
                         collections.Counter())
             for method in (False, True)}
    unused = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            # a method or property is used only as an attribute, so a local
            # or a parameter of the same name does not hide it
            method = "." in qualname
            # references from inside the definition itself do not count
            elsewhere = (total[method][node.name]
                         - _references(node, method)[node.name])
            if node.name not in paulievo.__all__ and elsewhere == 0:
                unused.append(f"{module}.{qualname}")
    return unused


def test_every_public_name_is_used_or_exported():
    assert sorted(set(unused_public_names()) - set(ALLOWED)) == []


def test_every_allowed_name_still_needs_its_entry():
    assert sorted(set(ALLOWED) - set(unused_public_names())) == []


def _body_without_argument_names(func: ast.FunctionDef) -> str:
    """A function's body as an AST dump, without its docstring and with
    each argument name replaced by the argument's position."""
    args = func.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
             + [args.vararg, args.kwarg] if a is not None]
    body = func.body
    first = body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        body = body[1:]
    module = ast.Module(body=copy.deepcopy(body), type_ignores=[])
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and node.id in names:
            node.id = f"argument {names.index(node.id)}"
    return ast.dump(module)


def shared_bodies() -> list[list[str]]:
    """Groups of package functions, at any depth, whose bodies are the
    same once argument names are ignored."""
    groups = collections.defaultdict(list)
    for module, tree in _package_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                groups[_body_without_argument_names(node)].append(
                    f"{module}.py:{node.lineno} {node.name}")
    return sorted(names for names in groups.values() if len(names) > 1)


def test_no_two_functions_share_a_body():
    assert shared_bodies() == []
