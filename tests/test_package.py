"""The package namespace: lazy imports, and the same public names as before."""

import subprocess
import sys
from pathlib import Path

import pytest

import rademax

SRC = Path(rademax.__file__).resolve().parents[1]

# rademax.__all__ as it stood when every module was imported eagerly, less
# cmp_threshold_threshold, a removed copy of Threshold.compare.
PUBLIC_NAMES = [
    "AtomTable", "ComparisonRow", "CriticalRow", "CriticalTable", "DomainError",
    "Dyadic", "EmptyFiberError", "EnvelopeResult", "ExactDist", "Fiber",
    "HARD_CAP_HIT", "LatticeValue", "Lcg", "Ordering", "PairProbe", "ParseError",
    "ProbeReport", "QuantileResult", "Ratio", "SearchReport", "SizeLimitError",
    "Threshold", "TruncationPolicy", "WeightVector", "ZUBKOV_SEROV_CLOSED",
    "atom_grid", "binomdist", "cmp_lattice_lattice", "cmp_lattice_threshold",
    "comparison_table", "critical_table", "dist_by_pattern_walk", "enumerate_dist",
    "envelope", "envelope_mid_tail",
    "equalisation_probe", "erfc", "errors", "exactnum", "fiber", "figure_data",
    "gaussian_upper_tail", "hoeffding_bound", "k_min", "mid_quantile", "mid_tail",
    "normal", "normalized_mid_quantile", "normalized_mid_tail", "oracle",
    "parse_ratio", "pmf", "quantile_finite", "quantile_universal",
    "random_maximizer_search", "s_to_t", "statbridge", "strict_tail", "t_to_s",
    "universal_envelope", "weak_tail",
]


def _fresh_modules(code: str) -> set[str]:
    """The rademax modules loaded by ``code`` in a fresh isolated interpreter."""
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}; "
             "print(' '.join(m for m in sys.modules if m.startswith('rademax')))")
    done = subprocess.run([sys.executable, "-I", "-c", probe], capture_output=True,
                          text=True, check=True, timeout=60)
    return set(done.stdout.split())


def test_cli_import_leaves_oracle_and_statbridge_unloaded():
    loaded = _fresh_modules("import rademax.cli")
    assert loaded == {"rademax", "rademax.cli", "rademax.errors", "rademax.exactnum",
                      "rademax.binomdist", "rademax.normal", "rademax.envelope"}


def test_a_name_loads_its_module_on_first_use():
    loaded = _fresh_modules("from rademax import Lcg")
    assert "rademax.oracle" in loaded
    assert "rademax.statbridge" not in loaded


def test_public_names_unchanged():
    assert rademax.__all__ == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(rademax))


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        value = getattr(rademax, name)
        if name in rademax._EXPORTS:
            assert value is sys.modules[f"rademax.{name}"]
        else:
            assert value is getattr(sys.modules[f"rademax.{rademax._MODULE_OF[name]}"], name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from rademax import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    assert namespace["enumerate_dist"] is rademax.oracle.enumerate_dist
    assert namespace["statbridge"] is rademax.statbridge


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        rademax.nope
    with pytest.raises(ImportError):
        exec("from rademax import nope", {})
