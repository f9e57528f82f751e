import argparse
import ast
import pathlib
import re

import pytest

from actcap.cli import _build_parser

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "actcap"
README = SRC.parent.parent / "README.md"


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


def _private_definitions(tree):
    """The module-level functions, classes and assigned constants whose
    names start with one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _private_members(tree):
    """The methods (properties and cached properties among them) and the
    assigned class attributes, defined in the body of a module-level
    class, whose names start with one underscore, as "Class.name"."""
    names = set()
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                found = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            names.update(f"{cls.name}.{n}" for n in found
                         if n.startswith("_") and not n.startswith("__"))
    return names


def _trees():
    """The parsed modules of the package, by file name."""
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(SRC.glob("*.py"))}


def _read_names(trees):
    """Every name any of the trees loads, imports or reads as an attribute."""
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


def test_module_level_private_names_are_read():
    # a simplification that strands a helper or a constant shows here; a
    # name counts as read where any module of the package loads it, imports
    # it or reads it as an attribute
    trees = _trees()
    read = _read_names(trees.values())
    defined = [(name, n) for name, tree in trees.items()
               for n in _private_definitions(tree)]
    assert len(defined) > 100
    assert sorted(f"{name}: {n}" for name, n in defined if n not in read) == []


def test_class_level_private_names_are_read():
    # likewise for a class's private methods, cached properties and class
    # attributes: one that no module of the package reads is stranded (a
    # hook whose callers have moved out of the package, say)
    trees = _trees()
    read = _read_names(trees.values())
    defined = [(name, n) for name, tree in trees.items()
               for n in _private_members(tree)]
    assert len(defined) > 10
    assert sorted(f"{name}: {n}" for name, n in defined
                  if n.partition(".")[2] not in read) == []


def _readme_commands():
    """The argument lists of the README's command-line block: each
    ``actcap`` line joined with its continuation lines, taking the first
    alternative of each ``[...]`` group."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    commands = []
    for line in block.splitlines():
        if line.startswith("actcap "):
            commands.append(line)
        elif line.strip():
            commands[-1] += " " + line
    return [re.sub(r"\[([^]|]*)[^]]*\]", r"\1", c).split()[1:]
            for c in commands]


def test_readme_commands_parse(monkeypatch):
    # a renamed or removed flag fails here unless the README follows it;
    # the commands are parsed, not run, and a flag must be spelled out in
    # full, so a stale prefix of a lengthened flag fails too
    parser = _build_parser()
    sub, = (a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction))
    for command in sub.choices.values():
        monkeypatch.setattr(command, "allow_abbrev", False)
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "capacity", "curve", "sweep", "sideinfo", "simulate", "scan",
        "converse", "carryfree"]
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail("README command does not parse: actcap " + " ".join(argv))
