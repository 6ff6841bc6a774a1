import re

import numpy as np
import pytest

from qif import cli, wavepacket as wp


@pytest.fixture(scope="session")
def grid():
    return wp.default_grid()


@pytest.fixture(scope="session")
def gauss(grid):
    return wp.gaussian_init(wp.GaussianParams(), grid)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture()
def sweep_minimum(tmp_path, capsys):
    """Runs `qif sweep` on an alpha = 0 oracle surface.

    Gives the (t*, delta*, min <p>_C) that the sweep prints.
    """
    def run(t, delta):
        argv = ["sweep", "--t", *map(str, t), "--delta", *map(str, delta),
                "--out", str(tmp_path / "minimum.csv")]
        assert cli.main(argv) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        value, t_star, d_star = re.fullmatch(
            r"min mean_C = (\S+) at t = (\S+), delta = (\S+)", line).groups()
        return float(t_star), float(d_star), float(value)
    return run
