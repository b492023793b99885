"""The package's public surface and the hygiene of its modules."""

import ast
import importlib.util
import sys
from pathlib import Path

import previsio

PACKAGE = Path(previsio.__file__).parent
TESTS = Path(__file__).parent

PUBLIC = {
    "Assessment", "Bet", "BetTerm", "ConditionalVariable", "ConvexEnvelope",
    "CredalSet", "Entry", "Event", "ExtensionResult", "GainTable",
    "PartitionFamily", "PossibilitySpace", "RandomVariable", "Trace", "Verdict",
    "against", "as_rational", "check_aul", "check_bi_coherence",
    "check_centered_convex", "check_coherence_unconditional",
    "check_conglomerability", "check_convex", "check_df_precise_conditional",
    "check_df_precise_unconditional", "check_separate_coherence",
    "check_w_coherence", "check_walley_asl", "convex_envelope",
    "credal_polytope", "definetti_example", "extend", "gain", "in_favour",
    "lower_envelope", "natural_extension", "natural_extension_prevision",
    "restrict", "upper_extension", "walley_666_example", "zero_given",
}

# diagnostics and aliases that no production path calls; the first three
# live on as test oracles in tests/axioms.py and tests/income_expense.py
REMOVED = ("check_a1_a4", "income_expense", "condition_predicates", "cond_sup", "cond_inf")


def test_the_public_names_are_pinned():
    assert len(PUBLIC) == 41
    assert len(previsio.__all__) == len(set(previsio.__all__))
    assert set(previsio.__all__) == PUBLIC
    for name in previsio.__all__:
        assert getattr(previsio, name) is not None
    for name in REMOVED:
        assert not hasattr(previsio, name), name


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names the module imports and never reads; a name listed in
    `__all__` counts as read, and `from __future__` binds nothing."""
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_every_module_uses_what_it_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    unused = {
        path.name: found
        for path in modules
        if (found := _unused_imports(ast.parse(path.read_text(), str(path))))
    }
    assert unused == {}


def test_the_guard_sees_an_unused_import():
    source = "from .model import Event, restrict\nimport math\n\nrestrict(None, None)\n"
    assert _unused_imports(ast.parse(source)) == ["Event (line 1)", "math (line 2)"]


# the only functions that build a gain the search stakes on: an entry's
# directions, and a partition family member's sum of them
GAIN_BUILDERS = {"expanded_elements", "_summed"}


def _element_builders(tree: ast.Module) -> list[str]:
    """The function, or `<module>`, around each `_Element(...)` call."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == "_Element"
            ):
                found.append(owner)
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_only_the_gain_builders_construct_elements():
    builders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if (found := _element_builders(ast.parse(path.read_text(), str(path))))
    }
    assert set(builders) == {"checkers.py"}
    assert set(builders["checkers.py"]) == GAIN_BUILDERS


def test_the_guard_sees_an_element_built_elsewhere():
    source = (
        "def expanded_elements(a):\n    return [_Element(1, 2, 3)]\n\n"
        "def check(a):\n    return [_Element(r, m, t) for r, m, t in a]\n\n"
        "X = _Element(0, 0, 0)\n"
    )
    assert _element_builders(ast.parse(source)) == ["expanded_elements", "check", "<module>"]


# an extension's helpers are bets of its elements: the search's one way
# from element stakes to bet terms makes them, `_Search._witness`
BET_TYPES = {"ConditionalVariable", "BetTerm", "Bet"}


def _bet_constructions(tree: ast.Module) -> list[str]:
    """Each call that builds one of `BET_TYPES`, by line: by its own name,
    as an attribute (`gains.Bet(...)`) or through a classmethod
    (`Bet.of(...)`)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        names, func = set(), node.func
        while isinstance(func, ast.Attribute):
            names.add(func.attr)
            func = func.value
        if isinstance(func, ast.Name):
            names.add(func.id)
        found += [(node.lineno, name) for name in names & BET_TYPES]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_extensions_build_no_bet_of_their_own():
    assert _bet_constructions(ast.parse((PACKAGE / "extensions.py").read_text())) == []


def test_the_guard_sees_a_bet_built_by_hand():
    source = (
        "def _named(x):\n    return ConditionalVariable(x.cond, x.values)\n\n"
        "def helpers(t):\n    return Bet((BetTerm(t, 1),))\n\n"
        "h = gains.Bet.of(against(t))\ng = Bet.of()\nw = search._witness({0: 1})\n"
    )
    assert _bet_constructions(ast.parse(source)) == [
        "ConditionalVariable (line 2)",
        "Bet (line 5)",
        "BetTerm (line 5)",
        "Bet (line 7)",
        "Bet (line 8)",
    ]


# the re-check of a failing witness prices it from the assessment, so it
# reads nothing the search built its bet from
SEARCH_STATE = {"elements", "int_rows", "row", "_Element"}


def _search_state_read(tree: ast.Module, function: str) -> list[str]:
    """The names and attributes of `SEARCH_STATE` that the module-level
    `function` reads, by line."""
    (node,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == function]
    found = []
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
        if name in SEARCH_STATE:
            found.append((sub.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_the_witness_recheck_reads_no_element():
    tree = ast.parse((PACKAGE / "checkers.py").read_text())
    assert _search_state_read(tree, "_verify_witness") == []


def test_the_guard_sees_an_element_read_in_the_recheck():
    source = (
        "def _verify_witness(bet, assessment, search):\n"
        "    rows = search.int_rows\n"
        "    for element in search.elements:\n"
        "        gain, d = element.row\n"
        "    return _Element\n\n"
        "def other(search):\n    return search.elements\n"
    )
    assert _search_state_read(ast.parse(source), "_verify_witness") == [
        "int_rows (line 2)",
        "elements (line 3)",
        "row (line 4)",
        "_Element (line 5)",
    ]


# an extension bound is certified and walked on its program's ints
INT_PATH = ("_certified", "_closed")


def _fraction_calls(tree: ast.Module, functions: tuple[str, ...]) -> list[str]:
    """The calls of `Fraction`, by its name or as an attribute
    (`fractions.Fraction(...)`), in each module-level function of
    `functions`, by function and line."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in functions:
            for sub in ast.walk(node):
                func = sub.func if isinstance(sub, ast.Call) else None
                if (getattr(func, "id", None) or getattr(func, "attr", None)) == "Fraction":
                    found.append(f"{node.name} (line {sub.lineno})")
    return found


def test_the_extension_certificates_make_no_fraction():
    tree = ast.parse((PACKAGE / "extensions.py").read_text())
    assert _fraction_calls(tree, INT_PATH) == []


def test_the_guard_sees_a_fraction_on_the_int_path():
    source = (
        "def _certified(search, payoff, bound):\n"
        "    price = Fraction(bound.rel)\n"
        "    return [fractions.Fraction(x, 2) for x in bound.helpers]\n\n"
        "def _closed(search, payoff, rel):\n    return rel.as_integer_ratio()\n\n"
        "def _extension(best):\n    return Fraction(best.rel)\n"
    )
    assert _fraction_calls(ast.parse(source), INT_PATH) == [
        "_certified (line 2)",
        "_certified (line 3)",
    ]

def _frozen_dataclasses(tree: ast.Module) -> list[str]:
    """The classes declared `@dataclass(frozen=True)`, by name."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            func = deco.func if isinstance(deco, ast.Call) else None
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "dataclass" and any(
                kw.arg == "frozen" and getattr(kw.value, "value", False) is True
                for kw in deco.keywords
            ):
                found.append(node.name)
    return found


def test_the_lp_records_are_tuples():
    # a frozen dataclass sets each field through `object.__setattr__`;
    # the LP layer's records are made once per row, program and outcome
    assert _frozen_dataclasses(ast.parse((PACKAGE / "lp.py").read_text())) == []


def test_the_guard_sees_a_frozen_dataclass():
    source = (
        "@dataclass(frozen=True)\nclass Row:\n    a: int\n\n"
        "@dataclasses.dataclass(eq=True, frozen=True)\nclass Program:\n    b: int\n\n"
        "@dataclass\nclass Trace:\n    c: int = 0\n\n"
        "@dataclass(frozen=False)\nclass Open:\n    d: int\n"
    )
    assert _frozen_dataclasses(ast.parse(source)) == ["Row", "Program"]


# the classical examples are documents: written by name, read back by
# `load_problem` like any other
GENERATORS = ("definetti_example", "walley_666_example")


def _model_names_read(tree: ast.Module, functions: tuple[str, ...]) -> dict[str, set[str]]:
    """The names imported from the model module that each of `functions`
    reads."""
    from_model = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module in ("model", "previsio.model")
        for alias in node.names
    }
    return {
        node.name: {
            name.id for name in ast.walk(node)
            if isinstance(name, ast.Name) and name.id in from_model
        }
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in functions
    }


def test_the_example_generators_build_no_model_object():
    tree = ast.parse((PACKAGE / "conglomerability.py").read_text())
    assert _model_names_read(tree, GENERATORS) == dict.fromkeys(GENERATORS, set())


def test_the_guard_sees_a_model_object_in_a_generator():
    source = (
        "from .model import Event, restrict\n\n"
        "def definetti_example(h):\n    return restrict(h, Event)\n\n"
        "def walley_666_example(n):\n    return {'atoms': [n]}\n"
    )
    assert _model_names_read(ast.parse(source), GENERATORS) == {
        "definetti_example": {"Event", "restrict"},
        "walley_666_example": set(),
    }


# the stake grid is a test oracle: it builds its gains from the entries,
# so it may read the model and make bets, and nothing of the checkers
GRID_IMPORTS = {"previsio.model", "previsio.gains"}


def _foreign_imports(tree: ast.Module) -> list[str]:
    """The modules imported that are neither in the standard library nor
    in `GRID_IMPORTS`; a relative import is foreign."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [
            f"{module} (line {node.lineno})"
            for module in modules
            if module not in GRID_IMPORTS
            and module.partition(".")[0] not in sys.stdlib_module_names
        ]
    return found


def test_the_stake_grid_shares_no_code_with_the_checkers():
    tree = ast.parse((TESTS / "grid_oracle.py").read_text())
    assert _foreign_imports(tree) == []


def test_the_stake_grid_is_not_shipped():
    assert importlib.util.find_spec("previsio.bruteforce") is None


def test_the_guard_sees_a_foreign_import():
    source = (
        "import math\nfrom fractions import Fraction\n"
        "from previsio.model import Assessment\nfrom previsio.gains import Bet\n"
        "from previsio.checkers import expanded_elements\nfrom previsio import checkers\n"
        "import previsio.lp\nfrom .gains import gain\nimport fraction_checks, os\n"
    )
    assert _foreign_imports(ast.parse(source)) == [
        "previsio.checkers (line 5)",
        "previsio (line 6)",
        "previsio.lp (line 7)",
        ".gains (line 8)",
        "fraction_checks (line 9)",
    ]
