"""The package's public surface and the hygiene of its modules."""

import ast
from pathlib import Path

import previsio

PACKAGE = Path(previsio.__file__).parent

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
