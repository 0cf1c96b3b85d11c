"""The opt-in verifier mutator (``tools/mutate_verifiers.py``) still
finds its sites: a verifier renamed or moved in ``src/`` must fail here,
not only when someone runs the mutator.  No mutant is tested here."""

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutate_verifiers.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("derham_mutate_verifiers",
                                                  TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_site_of_every_named_verifier_makes_a_mutant():
    tool = load_tool()
    sites = tool.find_sites(ROOT / "src" / "derham", tool.SELECTIONS)
    assert {site.function for site in sites} == set(tool.SELECTIONS)
    assert {site.kind for site in sites} == {"comparison", "boolean",
                                             "arithmetic", "constant", "not"}
    originals = {}
    for site in sites:
        if site.path not in originals:
            originals[site.path] = ast.unparse(
                ast.parse((ROOT / site.path).read_text()))
        mutant = tool.mutated_source(ROOT, site)
        compile(mutant, str(site.path), "exec")
        assert mutant != originals[site.path], site.label()
    for selection in tool.SELECTIONS.values():
        assert all((ROOT / path).is_file() for path in selection)
