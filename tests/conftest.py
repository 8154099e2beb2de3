import importlib.util

import pytest


@pytest.fixture(scope="session")
def oracle_extra() -> None:
    """Skips a test that needs the oracle extra where numpy or scipy is not
    installed.  The oracle itself is imported by the test, not here, so an
    import error of the oracle still fails wherever both are installed."""
    missing = [name for name in ("numpy", "scipy") if importlib.util.find_spec(name) is None]
    if missing:
        pytest.skip(f"needs the oracle extra; not installed: {', '.join(missing)}")


@pytest.fixture(scope="session")
def default_grid(oracle_extra):
    from gauge_workbench.oracle import RadialGrid

    return RadialGrid()


@pytest.fixture(scope="session")
def small_grid(oracle_extra):
    # coarsest grid the validator accepts; used where speed matters more
    # than the last two digits
    from gauge_workbench.oracle import RadialGrid

    return RadialGrid(n_points=2000)
