"""Shared instances and independent oracles for the test suite.

The oracles here are deliberately written against plain arrays with their own
arithmetic (no solver imports beyond data types), so that agreement with the
library is a genuine cross-check.
"""

import math

import numpy as np

from rbsde_lab.lattice import ForwardModel, TimeGrid, build_lattice
from rbsde_lab.problem import (
    ProblemSpec,
    SolutionTriple,
    make_generator,
    make_obstacle,
    make_terminal,
)

NO_OBSTACLE = -1e9


def far_obstacle(t, x):
    return np.full_like(np.asarray(x, dtype=float), NO_OBSTACLE)


def plain(generator):
    """``generator`` as a plain callable: ``snell.implicit_step`` iterates its steps.

    The registry's generators are affine, and an affine step is taken once,
    in closed form; wrapping one hides its coefficients, not its values, so
    each step is iterated with f frozen at the iterate.
    """
    return lambda t, x, y, z: generator(t, x, y, z)


def thomas(lower, diag, upper, rhs) -> np.ndarray:
    """Solve a tridiagonal system by elimination without pivoting, in one pass.

    The oracle for ``pde._factor`` and ``pde._sweep``, which split this
    into a factorization and a right-hand-side sweep with the same
    operations in the same order. ``lower[0]`` must be zero and
    ``upper[-1]`` is not read.
    """
    c_rows, d_rows = [], []
    c_prev = d_prev = 0.0
    for a, b, c, d in zip(lower.tolist(), diag.tolist(), upper.tolist(), rhs.tolist()):
        beta = b - a * c_prev
        c_prev = c / beta
        d_prev = (d - a * d_prev) / beta
        c_rows.append(c_prev)
        d_rows.append(d_prev)
    x = d_rows[-1]
    out = [x]
    for c, d in zip(reversed(c_rows[:-1]), reversed(d_rows[:-1])):
        x = d - c * x
        out.append(x)
    out.reverse()
    return np.array(out)


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def black_scholes_put(x0, strike, r, sigma, horizon) -> float:
    """European put on dX = r X dt + sigma X dB, discounted at r (Black-Scholes)."""
    s = sigma * math.sqrt(horizon)
    d1 = (math.log(x0 / strike) + r * horizon) / s + 0.5 * s
    d2 = d1 - s
    return strike * math.exp(-r * horizon) * _normal_cdf(-d2) - x0 * _normal_cdf(-d1)


def bachelier_put(x0, strike, r, b0, sigma0, horizon) -> float:
    """European put on dX = b0 dt + sigma0 dB, discounted at r (Bachelier).

    X_T is normal with mean x0 + b0 T and deviation sigma0 sqrt(T), so
    E[(K - X_T)^+] = (K - m) Phi(d) + s phi(d) with d = (K - m) / s.
    """
    m = x0 + b0 * horizon
    s = sigma0 * math.sqrt(horizon)
    d = (strike - m) / s
    density = math.exp(-0.5 * d * d) / math.sqrt(2.0 * math.pi)
    return math.exp(-r * horizon) * ((strike - m) * _normal_cdf(d) + s * density)


def put_problem(strike=40.0, r=0.06, p=1.5) -> ProblemSpec:
    return ProblemSpec(
        generator=make_generator(f"linear_discount:{r}"),
        terminal=make_terminal(f"put_payoff:{strike}"),
        obstacle=make_obstacle(f"put_payoff:{strike}"),
        lipschitz_kappa=r,
        p_exponent=p,
    )


def put_model(sigma=0.4, x0=36.0, r=0.06) -> ForwardModel:
    return ForwardModel.geometric(r, sigma, x0)


def batch_row(triple, b) -> SolutionTriple:
    """Row b of a batched triple (one row per intensity), as views of its layers."""
    return SolutionTriple(
        tuple(layer[b] for layer in triple.y),
        tuple(layer[b] for layer in triple.z),
        tuple(layer[b] for layer in triple.dk),
        triple.lattice,
    )


def sample_node_paths(lattice, n_paths, seed) -> np.ndarray:
    """Node-index paths (n_paths, n_steps + 1) drawn from the lattice's branch law."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n = lattice.n_steps
    uniforms = rng.random((n_paths, n))
    idx = np.zeros((n_paths, n + 1), dtype=np.int64)
    for k in range(n):
        p = lattice.up_prob[k]
        idx[:, k + 1] = idx[:, k] + (uniforms[:, k] < p)
    return idx


def optimal_stopping_times(out, node_paths) -> np.ndarray:
    """First step at which each node-index path enters ``out``'s exercise region, else n_steps.

    Replaying sampled paths against the region is a Monte Carlo check of
    the ``exercised`` column: the mean discounted reward at these stops
    must match the root value.
    """
    n = out.triple.n_steps
    stops = np.full(node_paths.shape[0], n, dtype=np.int64)
    undecided = np.ones(node_paths.shape[0], dtype=bool)
    for k in range(n + 1):
        hit = undecided & out.exercise_region[k][node_paths[:, k]]
        stops[hit] = k
        undecided &= ~hit
    return stops


def american_put_tree(s0, strike, r, sigma, horizon, n_steps) -> float:
    """Direct binomial American put: max(payoff, discounted expectation).

    The per-step discount is 1 / (1 + r dt), the implicit-Euler convention,
    so values are comparable to the backward solver beyond the O(dt)
    difference between discounting conventions.
    """
    dt = horizon / n_steps
    u = math.exp(sigma * math.sqrt(dt))
    p = (math.exp(r * dt) - 1.0 / u) / (u - 1.0 / u)
    disc = 1.0 / (1.0 + r * dt)
    v = np.maximum(strike - s0 * u ** (2.0 * np.arange(n_steps + 1) - n_steps), 0.0)
    for k in range(n_steps - 1, -1, -1):
        states = s0 * u ** (2.0 * np.arange(k + 1) - k)
        v = np.maximum(strike - states, disc * (p * v[1:] + (1.0 - p) * v[:-1]))
    return float(v[0])


def random_stopping_instance(rng):
    """Random small instance with a (y, z)-independent generator."""
    n = int(rng.integers(2, 11))
    horizon = float(rng.uniform(0.25, 2.0))
    if rng.random() < 0.5:
        model = ForwardModel.arithmetic(
            float(rng.normal(0.0, 1.0)),
            float(rng.uniform(0.1, 1.0)),
            float(rng.normal(0.0, 2.0)),
        )
    else:
        sigma = float(rng.uniform(0.1, 0.5))
        # keep the matched branch probability inside [0, 1]
        mu = float(rng.uniform(-0.5, 0.5)) * sigma * math.sqrt(n / horizon) * 0.8
        model = ForwardModel.geometric(mu, sigma, float(rng.uniform(5.0, 50.0)))
    strike = model.x0 * float(rng.uniform(0.7, 1.3))
    spec = ProblemSpec(
        generator=make_generator(f"constant:{float(rng.normal(0.0, 1.0))}"),
        terminal=make_terminal(f"put_payoff:{strike}"),
        obstacle=make_obstacle(f"put_payoff:{strike}"),
        lipschitz_kappa=0.0,
        p_exponent=1.5,
    )
    return build_lattice(model, TimeGrid(n, horizon)), spec


def ordered_instance_pair(rng, n_steps=24):
    """Two instances with pointwise-ordered data (second dominates the first)."""
    horizon = float(rng.uniform(0.5, 1.5))
    sigma = float(rng.uniform(0.15, 0.45))
    model = ForwardModel.geometric(
        float(rng.uniform(-0.2, 0.2)) * sigma, sigma, float(rng.uniform(20.0, 60.0))
    )
    strike = model.x0 * float(rng.uniform(0.8, 1.2))
    rate = float(rng.uniform(0.0, 0.3))
    base_shift = float(rng.uniform(0.0, 2.0))
    g_bump = float(rng.uniform(0.0, 3.0))
    f_bump = float(rng.uniform(0.0, 2.0))
    h_bump = float(rng.uniform(0.0, 1.0)) * min(g_bump, 1.0)

    def make(shift_g, shift_f, shift_h):
        def gen(t, x, y, z):
            return -rate * np.asarray(y, dtype=float) + shift_f

        def term(x):
            return np.maximum(strike - np.asarray(x, dtype=float), 0.0) + base_shift + shift_g

        def obst(t, x):
            return np.maximum(strike - np.asarray(x, dtype=float), 0.0) + shift_h

        return ProblemSpec(gen, term, obst, lipschitz_kappa=rate, p_exponent=1.5)

    low = make(0.0, 0.0, 0.0)
    high = make(g_bump, f_bump, min(h_bump, base_shift + g_bump))
    lattice = build_lattice(model, TimeGrid(n_steps, horizon))
    return lattice, low, high


def enumerate_markov_stopping_rules(lattice, spec) -> float:
    """Literal maximum over all node-set stopping rules (tiny lattices only).

    Every subset of non-terminal nodes defines a rule 'stop on first entry';
    the value of each rule is computed by pushing the reach probabilities
    forward. The optimum over all 2^(#nodes) subsets equals the optimal
    stopping value, independently of any backward recursion.
    """
    n = lattice.n_steps
    nodes = [(k, j) for k in range(n) for j in range(k + 1)]
    if len(nodes) > 16:
        raise ValueError("rule enumeration is exponential; use n_steps <= 5")
    dt = lattice.dt
    from rbsde_lab.problem import obstacle_layers, terminal_values

    h = list(obstacle_layers(spec, lattice))
    g = terminal_values(spec, lattice)
    f0 = [
        np.asarray(
            spec.generator(lattice.times[k], lattice.nodes[k], np.zeros(k + 1), np.zeros(k + 1)),
            dtype=float,
        )
        for k in range(n)
    ]

    best = -math.inf
    for mask in range(2 ** len(nodes)):
        stop_set = {nodes[i] for i in range(len(nodes)) if mask >> i & 1}
        alive = {0: 1.0}
        total = 0.0
        for k in range(n + 1):
            nxt = {}
            for j, prob in alive.items():
                if k == n:
                    total += prob * float(g[j])
                elif (k, j) in stop_set:
                    total += prob * float(h[k][j])
                else:
                    total += prob * float(f0[k][j]) * dt
                    p = float(lattice.up_prob[k])
                    nxt[j + 1] = nxt.get(j + 1, 0.0) + prob * p
                    nxt[j] = nxt.get(j, 0.0) + prob * (1.0 - p)
            alive = nxt
        best = max(best, total)
    return best
