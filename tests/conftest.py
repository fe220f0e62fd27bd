"""Shared fixtures: benchmark games, the Smith protocol, converged runs.

The long runs are session scoped so the expensive trajectories are computed
once and shared by the module tests and the acceptance gate.
"""

import numpy as np
import pytest

import popdyn as pd


def random_simplex(rng, dim, mass):
    # independent of the package's own sampler on purpose
    e = rng.exponential(size=dim)
    return mass * e / e.sum()


def null_dual(game):
    mu = np.zeros(game.q + 1)
    mu[0] = game.dual_mass
    return pd.DualState(mu, mass=game.dual_mass)


def masked_gaps(game, P):
    """``P_i - P_j`` within each population and exact zeros across them, by a masked subtract."""
    n = game.n
    mask = np.zeros((P.size, P.size), dtype=bool)
    mask[:n, :n] = mask[n:, n:] = True
    return np.subtract(P[:, None], P, out=np.zeros(mask.shape), where=mask)


def read_csv_rows(path):
    import csv

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


# plain-Python scalar rates and their integrals from 0, sharing no code with popdyn


def smith_rate(g):
    return max(g, 0.0)


def smith_integral(g):
    return 0.5 * max(g, 0.0) ** 2


def square_rate(g):
    return max(g, 0.0) ** 2


def square_integral(g):
    return max(g, 0.0) ** 3 / 3.0


# rate rho(g) = max(g, 0)^2 with antiderivative g^3 / 3 for g > 0
SQUARE = pd.Protocol(
    "square",
    lambda g: np.maximum(g, 0.0) ** 2,
    lambda g: np.maximum(g, 0.0) ** 3 / 3.0,
)
SCALAR = {"smith": (smith_rate, smith_integral), "square": (square_rate, square_integral)}


def oracle_payoffs(game, x, mu):
    """``(F, G)`` as lists of floats from the fitness rule and the constraint data."""
    F = [float(v) for v in game.fitness(np.array(x))]
    G = [0.0]
    for k, con in enumerate(game.constraints, start=1):
        a = con.a.tolist()
        if isinstance(con, pd.AffineConstraint):
            value = sum(ai * xi for ai, xi in zip(a, x)) - con.b
            grad = a
        else:
            Q = con.Q.tolist()
            Qx = [sum(qij * xj for qij, xj in zip(row, x)) for row in Q]
            quad = sum(xi * qxi for xi, qxi in zip(x, Qx))
            value = quad + sum(ai * xi for ai, xi in zip(a, x)) - con.c
            grad = [2.0 * qxi + ai for qxi, ai in zip(Qx, a)]
        G.append(value)
        F = [fi - mu[k] * gi for fi, gi in zip(F, grad)]
    return F, G


def oracle_value(game, primal_protocol, dual_protocol, xv, muv):
    """``V = sum_i x_i sum_j A_rho(F_j - F_i) + sum_k mu_k sum_l A_phi(G_l - G_k)`` as a double sum.

    The integrals come from ``SCALAR`` by protocol name, the payoffs from
    ``oracle_payoffs``.
    """
    primal_integral = SCALAR[primal_protocol.name][1]
    dual_integral = SCALAR[dual_protocol.name][1]
    xs, ms = xv.tolist(), muv.tolist()
    F, G = oracle_payoffs(game, xs, ms)
    return sum(xi * sum(primal_integral(fj - fi) for fj in F) for xi, fi in zip(xs, F)) + sum(
        mk * sum(dual_integral(gl - gk) for gl in G) for mk, gk in zip(ms, G)
    )


@pytest.fixture(scope="session")
def smith():
    return pd.smith_protocol()


@pytest.fixture(scope="session")
def congestion():
    return pd.paper_congestion()


@pytest.fixture(scope="session")
def rps():
    return pd.paper_rps()


@pytest.fixture(scope="session")
def congestion_run(congestion, smith):
    x0 = pd.sample_simplex(congestion.n, congestion.primal_mass, seed=0)
    traj = pd.integrate(
        congestion,
        smith,
        x0,
        null_dual(congestion),
        pd.SimParams(horizon=200.0, step=0.01),
    )
    assert traj.converged, "benchmark congestion run must settle within the horizon"
    return traj


@pytest.fixture(scope="session")
def rps_run(rps, smith):
    x0 = pd.PrimalState(np.full(3, 1.0 / 3.0), mass=1.0)
    return pd.integrate(
        rps,
        smith,
        x0,
        null_dual(rps),
        pd.SimParams(horizon=200.0, step=0.01),
    )


@pytest.fixture(scope="session")
def congestion_oracle(congestion):
    return pd.oracle_solve(congestion, resolution=200, refine_iters=2000, seed=0)


def reference_diagnostics(game, protocol, primal, dual):
    """Potential, constraint values and ``V`` at every recorded state, on new arrays."""
    T = primal.shape[0]
    pot, cons, lyap = np.empty(T), np.empty((T, game.q + 1)), np.empty(T)
    pd.dynamics._fill_diagnostics(game, protocol, primal, dual, pot, cons, lyap)
    return pot, cons, lyap


def reference_integrate(game, protocol, x0, mu0, params):
    """The step-by-step loop that ``integrate`` must reproduce bitwise.

    Each step evaluates the field with the package's kernel, checks both
    norms, records the state, tests convergence and the horizon, and then
    either takes the update as is or checks it: a non-finite update
    diverges, one with a negative share is refused with the positivity
    limit ``1 / max_j out_j`` computed from the rule-based payoffs
    (``core._payoff_raw`` and ``core._constraint_values_raw``) and
    ``masked_gaps``, and a mass drift is rescaled away.  Returns the
    ``Trajectory`` fields as a dict; raises what the loop raises.
    """
    from popdyn import core, dynamics

    n = game.n
    z = np.concatenate((x0.x, mu0.mu))
    h = params.step
    nsteps = int(np.floor(params.horizon / h + 1e-9))
    times, primal, dual, xnorm, munorm = [], [], [], [], []
    quiet, converged = 0, False
    # integrate's own loop runs with warnings off; the guards report non-finite values
    with np.errstate(all="ignore"):
        for k in range(nsteps + 1):
            fz = dynamics._joint_field(game, protocol, z)
            fx_norm = float(np.abs(fz[:n]).max())
            fmu_norm = float(np.abs(fz[n:]).max())
            if not (np.isfinite(fx_norm) and np.isfinite(fmu_norm)):
                raise pd.IntegrationDivergedError(k)
            times.append(k * h)
            primal.append(z[:n].copy())
            dual.append(z[n:].copy())
            xnorm.append(fx_norm)
            munorm.append(fmu_norm)
            if fx_norm + fmu_norm < params.convergence_tol:
                quiet += 1
                if quiet >= params.convergence_window:
                    converged = True
                    break
            else:
                quiet = 0
            if k == nsteps:
                break
            if params.integrator == "euler":
                z_new = z + h * fz
            else:
                k2 = dynamics._joint_field(game, protocol, z + 0.5 * h * fz)
                k3 = dynamics._joint_field(game, protocol, z + 0.5 * h * k2)
                k4 = dynamics._joint_field(game, protocol, z + h * k3)
                z_new = z + (h / 6.0) * (fz + 2.0 * k2 + 2.0 * k3 + k4)
            x_low, mu_low = np.minimum.reduceat(z_new, [0, n]).tolist()
            x_total, mu_total = np.add.reduceat(z_new, [0, n]).tolist()
            if (
                x_low >= 0.0
                and mu_low >= 0.0
                and abs(x_total - game.primal_mass) <= dynamics.REPAIR_DRIFT
                and abs(mu_total - game.dual_mass) <= dynamics.REPAIR_DRIFT
            ):
                z = z_new
                continue
            if not np.isfinite(z_new).all():
                raise pd.IntegrationDivergedError(k + 1)
            if min(x_low, mu_low) < 0.0:
                xv, muv = z[:n], z[n:]
                P = np.concatenate(
                    (core._payoff_raw(game, xv, muv), core._constraint_values_raw(game, xv))
                )
                gaps = masked_gaps(game, P)
                limit = 1.0 / protocol.value(gaps).sum(axis=0).max()
                raise pd.ConfigurationError(
                    f"step {h:g} is too long: the update from step {k} (t = {k * h:g}) "
                    "takes a share negative; the forward-Euler positivity limit "
                    f"1 / max_j out_j there is {limit:.3g}"
                    + ("" if params.integrator == "euler" else " (a guide for rk4)")
                )
            xv, muv = z_new[:n], z_new[n:]
            if abs(float(xv.sum()) - game.primal_mass) > dynamics.REPAIR_DRIFT:
                xv = xv * (game.primal_mass / float(xv.sum()))
            if abs(float(muv.sum()) - game.dual_mass) > dynamics.REPAIR_DRIFT:
                muv = muv * (game.dual_mass / float(muv.sum()))
            z = np.concatenate((xv, muv))

    primal, dual = np.array(primal), np.array(dual)
    pot, cons, lyap = reference_diagnostics(game, protocol, primal, dual)
    return {
        "times": np.array(times),
        "primal": primal,
        "dual": dual,
        "potential": pot,
        "constraints": cons,
        "lyapunov": lyap,
        "primal_field_norm": np.array(xnorm),
        "dual_field_norm": np.array(munorm),
        "converged": converged,
        "primal_mass": game.primal_mass,
        "dual_mass": game.dual_mass,
        "protocol": protocol,
    }
