"""Module boundaries of the package, read from its syntax trees.

The ADSH objective lives in ``solver`` beside the V-step; ``encoder`` is
the query network alone, with no loss and one step that both trainers
take, and knows nothing of similarity blocks; and only
``simgraph`` reads a block's stored relation, so a change of how the
block holds it stays inside ``simgraph``. ``simgraph._unique_rows`` is
the one finder of distinct rows, for the V-step's representative rows and
evaluation's distinct database codes alike. ``solver.train`` is the one
trainer entry: it picks the trainer from ``TrainConfig.mode``, so no
caller dispatches on the mode. ``evaluate`` ranks in one place: the
stable prefix ranking that its ``rank_by_hamming`` stage takes.
``dataio`` reads every file's payload through ``_Reader.array``, the one
bounds-checked read, and declares the header offsets that ``cli``
reports. ``hashcore.CHUNK_PAIRS`` is the one size of a block of query x
database pairs, for every scan over them. ``encoder`` owns the
relaxation u = tanh(raw output): every loss takes u and returns its
gradient wrt u, and only ``encoder`` applies tanh or its derivative.
``solver._pair_products`` is the one product of the relaxed codes by
their own columns, so the V-step takes its (1 - rho) term one way.
``solver._code_ids`` is the one place in ``solver`` that packs codes, so
the V-step keys rows by code id alone.
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


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "simgraph.py")
)
def test_only_simgraph_finds_distinct_rows(name):
    finders = [
        node.lineno
        for node in ast.walk(tree(name))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and (
            node.func.attr == "lexsort"
            or node.func.attr == "unique"
            and {k.arg for k in node.keywords} & {"axis", "return_inverse"}
        )
    ]
    assert not finders, f"{name} finds distinct rows itself on lines {finders}"


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


def test_encoder_holds_no_loss():
    names = names_in("encoder.py") | {
        node.arg for node in ast.walk(tree("encoder.py")) if isinstance(node, ast.arg)
    }
    assert not names & {"sign_rows", "weight_rows", "own_codes", "db_signs", "gamma"}


def test_only_minibatch_step_applies_an_update():
    callers = {
        (path.name, function.name)
        for path in PACKAGE.glob("*.py")
        for function in ast.walk(tree(path.name))
        if isinstance(function, ast.FunctionDef)
        for call in ast.walk(function)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "apply"
    }
    assert callers == {("encoder.py", "minibatch_step")}


def test_one_gradient_entry():
    for path in PACKAGE.glob("*.py"):
        assert "loss_and_param_grads" not in path.read_text(), path.name


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


def argsort_calls(node):
    return [
        call
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "argsort"
    ]


def test_evaluate_ranks_in_one_place():
    module = tree("evaluate.py")
    functions = {
        node.name: node for node in ast.walk(module) if isinstance(node, ast.FunctionDef)
    }
    ranker = functions["_ranking_prefix"]
    assert argsort_calls(ranker)
    assert len(argsort_calls(module)) == len(argsort_calls(ranker))
    callers = {
        name for name, node in functions.items() if "_ranking_prefix" in called_by(node)
    }
    assert callers == {"rank_by_hamming"}


def attribute_calls(node, attrs):
    return [
        (call.func.attr, call.lineno)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr in attrs
    ]


def test_dataio_reads_payloads_only_through_reader_array():
    module = tree("dataio.py")
    banned = attribute_calls(module, {"read", "frombuffer", "insert", "delete"})
    assert not banned, f"dataio.py reads or splices payloads itself: {banned}"
    reader = next(
        node for node in ast.walk(module)
        if isinstance(node, ast.ClassDef) and node.name == "_Reader"
    )
    array = next(
        node for node in reader.body
        if isinstance(node, ast.FunctionDef) and node.name == "array"
    )
    assert attribute_calls(array, {"readinto"})
    assert attribute_calls(module, {"readinto"}) == attribute_calls(array, {"readinto"})


def test_cli_takes_header_offsets_from_dataio():
    # dataio declares its header layout once; a FileFormatError that cli
    # builds locates its field by a dataio name, not by a literal offset
    offsets = [
        (call.args[1] if len(call.args) > 1 else call.keywords[0].value, call.lineno)
        for call in ast.walk(tree("cli.py"))
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "FileFormatError"
    ]
    assert len(offsets) == 5
    literal = [
        line for offset, line in offsets
        if not (
            isinstance(offset, ast.Attribute)
            and isinstance(offset.value, ast.Name)
            and offset.value.id == "dataio"
        )
    ]
    assert not literal, f"cli.py writes header offsets itself on lines {literal}"


def test_only_hashcore_sizes_pair_scans():
    sizes = {
        (path.name, target.id)
        for path in PACKAGE.glob("*.py")
        for node in tree(path.name).body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
        and (target.id.startswith("CHUNK_") or target.id.endswith("_CHUNK"))
    }
    assert sizes == {("hashcore.py", "CHUNK_PAIRS")}


def tanh_uses(node):
    """Lines of the calls to ``tanh`` and the spellings of ``1 - x**2``."""
    found = []
    for part in ast.walk(node):
        if isinstance(part, ast.Call):
            func = part.func
            if getattr(func, "attr", getattr(func, "id", None)) == "tanh":
                found.append(part.lineno)
        elif (
            isinstance(part, ast.BinOp)
            and isinstance(part.op, ast.Sub)
            and isinstance(part.left, ast.Constant)
            and part.left.value == 1
            and isinstance(part.right, ast.BinOp)
            and isinstance(part.right.op, ast.Pow)
            and isinstance(part.right.right, ast.Constant)
            and part.right.right.value == 2
        ):
            found.append(part.lineno)
    return found


@pytest.mark.parametrize(
    "name", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "encoder.py")
)
def test_only_encoder_applies_the_relaxation(name):
    uses = tanh_uses(tree(name))
    assert not uses, f"{name} applies tanh or 1 - x**2 on lines {uses}"


def test_encoder_applies_the_relaxation():
    assert tanh_uses(tree("encoder.py"))


def products_of_relaxed_columns(node):
    """Lines where ``relaxed``, or a slice of it, is multiplied by a slice
    of ``relaxed``: by ``*`` or by a ``multiply`` call."""

    def is_relaxed(part):
        return isinstance(part, ast.Name) and part.id == "relaxed"

    def is_slice(part):
        return isinstance(part, ast.Subscript) and is_relaxed(part.value)

    found = []
    for part in ast.walk(node):
        if isinstance(part, ast.BinOp) and isinstance(part.op, ast.Mult):
            operands = [part.left, part.right]
        elif isinstance(part, ast.Call) and isinstance(part.func, ast.Attribute):
            operands = part.args[:2] if part.func.attr == "multiply" else []
        else:
            continue
        if all(is_relaxed(x) or is_slice(x) for x in operands) and any(
            is_slice(x) for x in operands
        ):
            found.append(part.lineno)
    return found


def test_pair_products_are_the_one_product_of_query_columns():
    # the V-step's (1 - rho) term has one path: the pair columns. A
    # per-column product relaxed * relaxed[:, k, None] beside it would be
    # a second one
    pair = solver_functions()["_pair_products"]
    lines = products_of_relaxed_columns(tree("solver.py"))
    others = [line for line in lines if not pair.lineno <= line <= pair.end_lineno]
    assert lines
    assert not others, f"solver.py multiplies relaxed by a column on lines {others}"


@pytest.mark.parametrize(
    "source, found",
    [
        ("relaxed * relaxed[:, k, None]", True),
        ("relaxed[:, k, None] * relaxed", True),
        ("np.multiply(relaxed[:, k, None], relaxed[:, k:], out=x)", True),
        ("relaxed * relaxed", False),
        ("relaxed.T @ relaxed", False),
        ("relaxed * (quad - target)", False),
    ],
)
def test_relaxed_column_products_are_found(source, found):
    assert bool(products_of_relaxed_columns(ast.parse(source))) == found


def test_only_code_ids_packs_codes_in_solver():
    # the V-step's one sweep key is (code id, tag): a packed-row key beside
    # it would name _pack_bits outside _code_ids
    users = {
        getattr(top, "name", top.lineno)
        for top in tree("solver.py").body
        if not isinstance(top, ast.ImportFrom)
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id == "_pack_bits"
        or isinstance(node, ast.Attribute) and node.attr == "_pack_bits"
    }
    assert users == {"_code_ids"}
