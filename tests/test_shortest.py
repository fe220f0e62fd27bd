"""The trajectory CSV's float renderer against ``repr``, cell by cell."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import popdyn as pd
from popdyn import _shortest

# values per rendered block: keeps the renderer's work arrays small
BLOCK = 1 << 15


def rendered(values):
    """The renderer's text of each value, rendered as a one-column CSV."""
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    render = _shortest.CsvRows().render
    text = b"".join(render(flat[lo : lo + BLOCK, None]) for lo in range(0, flat.size, BLOCK))
    return text.decode("ascii").split("\n")[:-1]


def assert_matches_repr(values):
    flat = np.asarray(values, dtype=np.float64).reshape(-1)
    want = ["NaN" if math.isnan(v) else repr(v) for v in flat.tolist()]
    got = rendered(flat)
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(flat.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} of {flat.size} differ, first: {bad[:5]}"


def with_neighbours(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
def test_any_float_reads_as_repr(value):
    assert_matches_repr([value])


def test_a_million_random_bit_patterns_read_as_repr():
    # uniform over all 2^64 patterns: both signs, every exponent, NaNs and infinities
    bits = np.random.default_rng(20).integers(0, 1 << 64, size=1_000_000, dtype=np.uint64, endpoint=False)
    assert_matches_repr(bits.view(np.float64))


def test_powers_of_two_and_of_ten_read_as_repr():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    assert_matches_repr(with_neighbours(np.concatenate([twos, tens, -twos])))


def test_integers_read_as_repr():
    rng = np.random.default_rng(21)
    ints = np.concatenate([np.arange(100_000), rng.integers(0, 1 << 53, size=100_000, endpoint=True)])
    assert_matches_repr(ints.astype(np.float64))
    assert_matches_repr([2.0**53, 2.0**53 - 1, -(2.0**53)])


def test_layout_edges_read_as_repr():
    # the switches between positional and exponent text
    edges = [1e16, 9999999999999998.0, 1e-4, 1e-5, 1e15, 1e17, 123456789012345680.0, 0.001]
    assert_matches_repr(with_neighbours(edges + [-e for e in edges]))


def test_the_centesimal_grid_reads_as_repr():
    # step times of the default step h = 0.01
    assert_matches_repr(np.arange(300_000) * 0.01)


def test_special_values_and_the_separators():
    block = np.array([[1.0, -0.0, 0.0], [np.nan, -np.nan, np.inf], [-np.inf, 1e22, 5e-324]])
    assert _shortest.CsvRows().render(block) == b"1.0,-0.0,0.0\nNaN,NaN,inf\n-inf,1e+22,5e-324\n"


def test_import_popdyn_loads_neither_the_cli_nor_the_renderer(tmp_path):
    # the CLI, the renderer's tables and numpy.polynomial stay out of a
    # library user's start-up, which validates the registered protocols
    env = os.environ.copy()
    package_root = str(Path(pd.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    child = (
        "import sys, popdyn; "
        "loaded = [m for m in ('popdyn.cli', 'popdyn._shortest', 'numpy.polynomial') if m in sys.modules]; "
        "assert not loaded, loaded"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
