"""Module boundaries of the package, read from its syntax trees.

The ADSH objective lives in ``solver`` beside the V-step; ``encoder`` is
the query network and knows nothing of similarity blocks; and only
``simgraph`` reads a block's stored relation, so a change of how the
block holds it stays inside ``simgraph``. ``solver.train`` is the one
trainer entry: it picks the trainer from ``TrainConfig.mode``, so no
caller dispatches on the mode.
"""

import ast
from pathlib import Path

import pytest

import asymhash

PACKAGE = Path(asymhash.__file__).resolve().parent


def tree(name):
    return ast.parse((PACKAGE / name).read_text(), filename=name)


def imported_from(name, module):
    """The names ``name`` imports from the sibling module ``module``."""
    return [
        alias.name
        for node in ast.walk(tree(name))
        if isinstance(node, ast.ImportFrom)
        and node.level == 1
        and node.module == module
        for alias in node.names
    ]


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "simgraph.py")
)
def test_only_simgraph_reads_the_stored_relation(name):
    readers = [
        node.lineno
        for node in ast.walk(tree(name))
        if isinstance(node, ast.Attribute) and node.attr == "positive"
    ]
    assert not readers, f"{name} reads .positive on lines {readers}"


def test_solver_imports_no_private_encoder_name():
    private = [n for n in imported_from("solver.py", "encoder") if n.startswith("_")]
    assert not private


def test_encoder_knows_no_similarity_block():
    assert not imported_from("encoder.py", "simgraph")
    names = {
        node.id if isinstance(node, ast.Name) else node.arg
        for node in ast.walk(tree("encoder.py"))
        if isinstance(node, (ast.Name, ast.arg))
    }
    assert not names & {"SimilarityBlock", "GroupStats", "block"}


def solver_functions():
    """The module-level functions of ``solver``, by name."""
    return {
        node.name: node
        for node in tree("solver.py").body
        if isinstance(node, ast.FunctionDef)
    }


def trainers():
    """The functions of ``solver`` that take (features, labels, config)."""
    return {
        name
        for name, node in solver_functions().items()
        if [a.arg for a in node.args.args[:3]] == ["features", "labels", "config"]
    }


def names_in(name):
    """Every identifier the module ``name`` uses, defines or spells out."""
    found = set()
    for node in ast.walk(tree(name)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def called_by(function):
    """The plain names the syntax tree ``function`` calls."""
    return [
        call.func.id
        for call in ast.walk(function)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
    ]


def test_train_is_the_one_public_trainer():
    found = trainers()
    assert "train" in found
    assert all(name.startswith("_") for name in found - {"train"})


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "solver.py")
)
def test_only_solver_names_a_trainer_but_train(name):
    assert not names_in(name) & (trainers() - {"train"})


def test_only_train_calls_the_other_trainers():
    found = trainers()
    functions = solver_functions()
    for name, node in functions.items():
        if name != "train":
            assert not set(called_by(node)) & (found - {"train"}), name
    probe_calls = called_by(functions["complexity_probe"])
    assert [c for c in probe_calls if c in found] == ["train"]
