"""Peak memory of large sweeps written with ``--out``.

The writer formats a table in blocks of ``cli.BLOCK_ROWS`` rows, so past the
whole numeric columns only one block is held as Python floats and text.
Writing every row's floats and strings before the first byte took 52.5 MB
of traced peak for the CSV case below and 45.5 MB for the JSON case; the
block writer takes about 13 MB and 4 MB.
"""

import tracemalloc

import pytest

from resokit import cli

# (extra flags, steps, bound on the traced peak in MB)
CASES = [
    ([], 100_000, 25.0),
    (["--format", "json"], 20_000, 15.0),
]


@pytest.mark.parametrize("flags, steps, bound_mb", CASES, ids=["csv-1e5", "json-2e4"])
def test_sweep_peak_memory(tmp_path, flags, steps, bound_mb):
    out = tmp_path / "sweep.out"
    argv = ["amplitude", "--a", "1", "--rstar", "0.5", "--min", "0", "--max", "10",
            "--out", str(out), *flags]
    # lazy imports and first-call caches are not part of the peak
    assert cli.main(argv + ["--steps", "3"]) == 0
    tracemalloc.start()
    try:
        assert cli.main(argv + ["--steps", str(steps)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < bound_mb
    assert out.stat().st_size > 100 * steps
