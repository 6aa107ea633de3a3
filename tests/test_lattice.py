import math

import numpy as np
import pytest

from rbsde_lab.lattice import (
    CoarseTimeStepError,
    ForwardModel,
    TimeGrid,
    build_lattice,
    lattice_expectation,
    sample_node_paths,
)


def test_time_grid_partitions_horizon_exactly():
    grid = TimeGrid(7, 1.3)
    assert grid.dt * grid.n_steps == pytest.approx(1.3, abs=1e-15)


@pytest.mark.parametrize("n_steps,horizon", [(0, 1.0), (-3, 1.0), (4, 0.0), (4, -1.0)])
def test_time_grid_rejects_bad_inputs(n_steps, horizon):
    with pytest.raises(ValueError):
        TimeGrid(n_steps, horizon)


def test_model_validation():
    with pytest.raises(ValueError):
        ForwardModel.geometric(0.0, 0.2, -1.0)
    with pytest.raises(ValueError):
        ForwardModel.arithmetic(0.0, -0.1, 1.0)
    with pytest.raises(ValueError):
        ForwardModel("gamma", 1.0)


def test_degenerate_lattice_is_constant():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 0.0, 1.0), TimeGrid(4, 1.0))
    for layer in lat.nodes:
        assert np.all(layer == 1.0)


def test_deterministic_drift_lattice_tracks_ode():
    lat = build_lattice(ForwardModel.arithmetic(1.0, 0.0, 0.0), TimeGrid(4, 1.0))
    for k, layer in enumerate(lat.nodes):
        assert np.allclose(layer, k * 0.25, atol=1e-15)


def test_geometric_lattice_is_a_martingale_without_drift():
    # oracle: exact forward induction of E[X_T] through the branch probabilities
    lat = build_lattice(ForwardModel.geometric(0.0, 0.2, 100.0), TimeGrid(100, 1.0))
    expectation = float(np.sum(lat.node_weights()[-1] * lat.nodes[-1]))
    assert abs(expectation - 100.0) <= 1e-8


@pytest.mark.parametrize(
    "model",
    [
        ForwardModel.arithmetic(0.3, 0.7, 2.0),
        ForwardModel.geometric(0.05, 0.25, 50.0),
    ],
)
def test_one_step_moments_match_to_second_order(model):
    grid = TimeGrid(16, 1.0)
    lat = build_lattice(model, grid)
    dt = grid.dt
    for k in range(grid.n_steps):
        x = lat.nodes[k]
        p = lat.up_prob[k]
        up, dn = lat.nodes[k + 1][1:], lat.nodes[k + 1][:-1]
        mean = p * up + (1.0 - p) * dn - x
        var = p * (up - x) ** 2 + (1.0 - p) * (dn - x) ** 2 - mean**2
        drift = model.drift(lat.times[k], x)
        vol = model.vol(lat.times[k], x)
        scale = 1.0 + np.abs(x)
        big_c = 5.0 * (model.drift_coeff**2 + model.vol_coeff**2 + 1.0) * scale
        assert np.all(np.abs(mean - drift * dt) <= big_c * dt**2)
        assert np.all(np.abs(var - vol**2 * dt) <= big_c * dt**2)


def test_recombination_node_counts():
    lat = build_lattice(ForwardModel.geometric(0.02, 0.3, 10.0), TimeGrid(12, 1.0))
    for k, layer in enumerate(lat.nodes):
        assert layer.shape == (k + 1,)
        assert len(np.unique(layer)) == k + 1


def test_coarse_step_error_names_the_step():
    with pytest.raises(CoarseTimeStepError, match="dt too coarse.*step 0"):
        build_lattice(ForwardModel.geometric(2.0, 0.1, 1.0), TimeGrid(2, 1.0))


def test_expectation_of_constant_is_constant():
    lat = build_lattice(ForwardModel.geometric(0.05, 0.2, 10.0), TimeGrid(5, 1.0))
    out = lattice_expectation(lat, np.full(4, 3.25), 2)
    assert np.allclose(out, 3.25, atol=1e-15)


def test_expectation_half_probability():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(2, 1.0))
    out = lattice_expectation(lat, np.array([0.0, 1.0]), 0)
    assert out.shape == (1,)
    assert out[0] == pytest.approx(0.5, abs=1e-16)


def test_expectation_reproduces_martingale_states():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 0.8, 1.0), TimeGrid(6, 1.0))
    for k in range(6):
        out = lattice_expectation(lat, lat.nodes[k + 1], k)
        assert np.allclose(out, lat.nodes[k], atol=1e-14)


def test_expectation_length_mismatch():
    lat = build_lattice(ForwardModel.arithmetic(0.0, 1.0, 0.0), TimeGrid(3, 1.0))
    with pytest.raises(ValueError, match="expected 3 values"):
        lattice_expectation(lat, np.zeros(5), 1)


def test_node_path_sampler_is_deterministic_and_consistent():
    lat = build_lattice(ForwardModel.geometric(0.06, 0.4, 36.0), TimeGrid(30, 1.0))
    a = sample_node_paths(lat, 100, seed=7)
    b = sample_node_paths(lat, 100, seed=7)
    assert np.array_equal(a, b)
    steps = np.diff(a, axis=1)
    assert set(np.unique(steps)) <= {0, 1}


@pytest.mark.parametrize("n_steps", [1, 2, 3, 7, 64, 385])
def test_geometric_nodes_are_the_reference_powers_bit_for_bit(n_steps):
    lat = build_lattice(ForwardModel.geometric(0.06, 0.4, 36.0), TimeGrid(n_steps, 1.0))
    u = math.exp(0.4 * math.sqrt(lat.dt))
    d = 1.0 / u
    p = (math.exp(0.06 * lat.dt) - d) / (u - d)
    for k in range(n_steps + 1):
        # the oracle: node j of layer k is x0 * u**(2j - k)
        reference = 36.0 * u ** (2.0 * np.arange(k + 1) - k)
        assert lat.nodes[k].tobytes() == reference.tobytes()
    for k in range(n_steps):
        assert lat.up_prob[k].tobytes() == np.full(k + 1, p).tobytes()


@pytest.mark.parametrize(
    "model",
    [ForwardModel.geometric(0.06, 0.4, 36.0), ForwardModel.arithmetic(0.3, 0.7, 2.0)],
    ids=["geometric", "arithmetic"],
)
def test_lattice_layers_are_read_only(model):
    lat = build_lattice(model, TimeGrid(8, 1.0))
    with pytest.raises(ValueError, match="read-only"):
        lat.nodes[5][2] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        lat.nodes[4] *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        lat.up_prob[3][0] = 1.0
