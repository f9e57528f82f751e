import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "actcap"


def _exported(tree):
    """The names listed in the module's ``__all__``, if it has one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_module_level_imports_are_used():
    # a deletion that strands an import shows here; the package's
    # __init__ imports only to re-export, so it is not checked
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound.update(a.asname or a.name for a in node.names)
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{path.name}: {name}"
                   for name in sorted(bound - read - _exported(tree))]
    assert not unused
