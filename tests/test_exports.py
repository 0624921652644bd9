import ast
import importlib
import pathlib
import pkgutil

import pytest

import hadshock

MODULES = sorted(m.name for m in pkgutil.iter_modules(hadshock.__path__))
EXPORTERS = ["hadshock"] + [f"hadshock.{m}" for m in MODULES]

# Exports that no code of the package calls, on purpose: library entry points of
# the worked examples, and the sphere reference that tests hold the classifier to.
NOT_CALLED_INSIDE = {
    "cg_alpha_star",  # exact 2-D Ciarlet-Geymonat threshold
    "transition_alpha",  # bisection of the verdict over an intensity bracket
    "reference_delta",  # closed-form CG2D / Blatz3D stability functions
    "sphere_min_reference",  # dense sphere covering plus compass search, for tests only
    "fd_check_suite",  # the derivative checks at one state; verify runs them on stacks
}


def _names_used_in_package() -> set:
    """Every name the modules load, as a bare name, an attribute or an import, outside
    the function or class that defines it; the package __init__ only re-exports."""
    used = set()
    for path in pathlib.Path(hadshock.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


@pytest.mark.parametrize("name", EXPORTERS)
def test_every_exported_name_exists(name):
    # a stale name in __all__ breaks `from hadshock import *`
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("name", EXPORTERS)
def test_every_exported_name_is_used(name):
    # an export that no command, oracle check or other module calls is a dead helper
    used = _names_used_in_package() | NOT_CALLED_INSIDE
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if n not in used] == []


def test_allowlist_names_exports():
    exported = {n for name in EXPORTERS for n in importlib.import_module(name).__all__}
    assert NOT_CALLED_INSIDE <= exported


def test_package_exports_resolve_to_their_home_modules():
    # the package's one name -> module table cannot drift from the modules it points at
    assert hadshock.__all__ == list(hadshock._HOME)
    for name, home in hadshock._HOME.items():
        module = importlib.import_module(f"hadshock.{home}")
        assert name in module.__all__, name
        assert getattr(hadshock, name) is getattr(module, name), name


def test_record_fields_keep_their_order():
    # the records are named tuples, so building or unpacking one by position follows this order
    from hadshock import classifier, materials, shock

    records = (materials.HypothesisReport, materials.AcousticSpectrum,
               shock.FrequencyCoefficients, shock.LaxReport, classifier.Witness,
               classifier.StabilityVerdict)
    assert {r.__name__: r._fields for r in records} == {
        "HypothesisReport": ("h2_positive", "h3_negative", "free_stress", "bulk_relation",
                             "poisson", "lame_first", "J_grid", "fd_consistent",
                             "fd_max_rel_err", "effective_bulk", "h_nonincreasing"),
        "AcousticSpectrum": ("kappa1", "mult1", "kappa2", "mult2", "eigvec2"),
        "FrequencyCoefficients": ("eta", "omega", "Nsq", "P", "zeta"),
        "LaxReport": ("ok", "margins"),
        "Witness": ("xi_t", "t_root", "criterion_value"),
        "StabilityVerdict": ("kind", "rho", "min_criterion", "witness", "marginal"),
    }


VERDICT_PATH = ("materials", "shock", "lopatinskii", "classifier", "linalg")
# references that only the oracle's cross-checks and the tests use
ORACLE_ONLY = {"delta_v3_values", "v3_factors_values", "winding", "beta_residual",
               "_require_negative_rho", "cg_alpha_star", "reference_delta"}


def _tree(module: str) -> ast.Module:
    return ast.parse((pathlib.Path(hadshock.__file__).parent / f"{module}.py").read_text())


@pytest.mark.parametrize("module", VERDICT_PATH)
def test_verdict_path_neither_imports_the_oracle_nor_names_its_references(module):
    names = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    assert "oracle" not in names and not names & ORACLE_ONLY, names & (ORACLE_ONLY | {"oracle"})


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_every_imported_name_is_used(module):
    # an import that nothing reads is left over from code that moved or went away
    tree = _tree(module)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    name = "hadshock" if module == "__init__" else f"hadshock.{module}"
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert sorted(imported - used - set(exported)) == []
