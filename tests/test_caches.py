"""The cache inventory covers every memo cache written in the source."""

import ast
from pathlib import Path

import macsym
from macsym import macdonald

SRC = Path(macsym.__file__).resolve().parent


def _lru_cached_in_source():
    """module.function for every def decorated with lru_cache in src/macsym."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                for dec in node.decorator_list:
                    target = dec.func if isinstance(dec, ast.Call) else dec
                    name = target.attr if isinstance(target, ast.Attribute) else target.id
                    if name == "lru_cache":
                        out.add(f"{path.stem}.{node.name}")
    return out


def test_cache_inventory_covers_every_lru_cache_and_clears_them():
    names = _lru_cached_in_source()
    assert len(names) >= 29  # a scan that found none would pass the check below vacuously
    sizes = macsym.cache_sizes()
    assert set(sizes) == names | {"macdonald._PAIRS"}
    before = macsym.integral_rep_P((2, 1), 3).terms
    macsym.kostka_matrix(2)
    macsym.structure_f((1,), (1,))
    filled = macsym.cache_sizes()
    for name in ("macdonald._PAIRS", "ctengine._outer_integrand", "ctengine._pair_majorant",
                 "kostka.kostka_matrix", "macdonald._structure_peel"):
        assert filled[name] > 0, name
    macsym.clear_caches()
    assert set(macsym.cache_sizes().values()) == {0}
    assert not macdonald._PAIRS
    # the cleared caches rebuild the same values
    assert macsym.integral_rep_P((2, 1), 3).terms == before
