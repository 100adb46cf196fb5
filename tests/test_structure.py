"""Module boundaries of the package, read from its syntax trees.

The ADSH objective lives in ``solver`` beside the V-step; ``encoder`` is
the query network and knows nothing of similarity blocks; and only
``simgraph`` reads a block's stored relation, so a change of how the
block holds it stays inside ``simgraph``.
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
