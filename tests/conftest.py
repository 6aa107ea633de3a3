import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import put_model, put_problem  # noqa: E402

from rbsde_lab.lattice import TimeGrid, build_lattice  # noqa: E402
from rbsde_lab.pde import PdeGrid, solve_pde_penalized, solve_pde_projected  # noqa: E402
from rbsde_lab.penalty import run_sweep, solve_penalized  # noqa: E402
from rbsde_lab.snell import solve_snell  # noqa: E402

PUT_STRIKE = 40.0
PUT_RATE = 0.06
PUT_SIGMA = 0.4
PUT_X0 = 36.0
PUT_SCHEDULE = [2.0**i for i in range(11)]


@pytest.fixture(scope="session")
def put_spec():
    return put_problem(PUT_STRIKE, PUT_RATE)


@pytest.fixture(scope="session")
def put_fwd():
    return put_model(PUT_SIGMA, PUT_X0, PUT_RATE)


@pytest.fixture(scope="session")
def put_lattice_512(put_fwd):
    return build_lattice(put_fwd, TimeGrid(512, 1.0))


@pytest.fixture(scope="session")
def put_snell_512(put_lattice_512, put_spec):
    return solve_snell(put_lattice_512, put_spec)


@pytest.fixture(scope="session")
def put_lattice_2048(put_fwd):
    return build_lattice(put_fwd, TimeGrid(2048, 1.0))


@pytest.fixture(scope="session")
def put_snell_2048(put_lattice_2048, put_spec):
    return solve_snell(put_lattice_2048, put_spec)


@pytest.fixture(scope="session")
def put_sweep_512(put_lattice_512, put_spec):
    return run_sweep(put_lattice_512, put_spec, PUT_SCHEDULE)


@pytest.fixture(scope="session")
def put_penalized_512(put_lattice_512, put_spec):
    """The sweep's batched penalized solve: row b of each layer is intensity PUT_SCHEDULE[b]."""
    return solve_penalized(put_lattice_512, put_spec, PUT_SCHEDULE)


@pytest.fixture(scope="session")
def put_pde_field(put_spec, put_fwd):
    grid = PdeGrid(0.0, 160.0, 401, TimeGrid(400, 1.0))
    return solve_pde_projected(grid, put_spec, put_fwd)


@pytest.fixture(scope="session")
def put_pde_penalized_family(put_spec, put_fwd, put_pde_field):
    grid = put_pde_field.grid
    return {
        n: solve_pde_penalized(grid, put_spec, put_fwd, n) for n in (1e2, 1e3, 1e4)
    }


def pytest_runtest_logreport(report):
    # one visible line per acceptance criterion, independent of capture mode
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    try:
        import test_acceptance
    except ImportError:
        return
    label = test_acceptance.CRITERIA.get(report.nodeid.split("::")[-1])
    if label is not None:
        print(f"\nACCEPTANCE {label}: {'PASS' if report.passed else 'FAIL'}")
