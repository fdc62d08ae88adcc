"""Reference values for the correctness checks, independent of the package's
model code.

``EXTENSIVE_OBJECTIVE`` holds the optimal objectives of the two fixtures.
``recourse_cost`` solves one scenario's recourse LP at a fixed first stage
from the instance data alone: it builds its own sparse matrices and calls
``scipy.optimize.linprog`` directly, so it shares no row builder, model
assembly or solver wrapper with the package.  A change in the package that
drops or relaxes a row of the model therefore shows as a disagreement with
these values instead of moving the reference with it.

The recourse LP of scenario ``omega`` at first stage ``x_hat`` decouples by
period.  In each period, with ``r+``, ``r-``, scheduled wind ``w`` and
day-ahead flows ``f`` clamped to their boxes and ``W`` the realized wind:

    min  sum_g (C+_g p+_g - C-_g p-_g) + C_shed sum_n shed_n
    s.t. shed_n + sum_{g at n} (p+_g - p-_g) - sum_{j at n} spill_j
           + sum_{l into n} ft_l - sum_{l out of n} ft_l
           = sum_{j at n} (w_j - W_j) + sum_{l out of n} f_l - sum_{l into n} f_l
         ft_l = B_l (d_from(l) - d_to(l))
         0 <= p+ <= r+,  0 <= p- <= r-,  0 <= spill <= W,
         0 <= shed_n <= load_n,  |ft_l| <= cap_l,  d free, d_ref = 0.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

# Optimal objective of the extensive form of each fixture at mip_gap 1e-6.
EXTENSIVE_OBJECTIVE = {"toy-a": 2428.6666666666665, "med-b": 20754.40000000001}


def recourse_cost(instance, scenarios, omega: str, x_hat) -> float:
    """Optimal recourse cost of ``omega`` at ``x_hat``, by its own LP."""
    gens, farms, lines, nodes = (instance.generators, instance.wind_farms,
                                 instance.lines, instance.nodes)
    T = instance.horizon
    G, J, N, L = len(gens), len(farms), len(nodes), len(lines)
    at = {n: k for k, n in enumerate(nodes)}

    gen_node = np.zeros((N, G))
    gen_node[[at[g.node] for g in gens], range(G)] = 1.0
    farm_node = np.zeros((N, J))
    farm_node[[at[w.node] for w in farms], range(J)] = 1.0
    into = np.zeros((N, L))      # +1 where line l enters node n, -1 where it leaves
    into[[at[ln.to_node] for ln in lines], range(L)] = 1.0
    into[[at[ln.from_node] for ln in lines], range(L)] = -1.0
    suscept = np.array([ln.susceptance for ln in lines])

    # one period's columns: p+ (G), p- (G), spill (J), shed (N), d (N), ft (L)
    balance = np.hstack([gen_node, -gen_node, -farm_node, np.eye(N),
                         np.zeros((N, N)), into])
    flow = np.hstack([np.zeros((L, 2 * G + J + N)), suscept[:, None] * into.T,
                      np.eye(L)])
    a_eq = sp.kron(sp.identity(T), sp.csr_matrix(np.vstack([balance, flow])))

    def clamp(values, lo, hi):
        return np.clip(np.asarray(values, dtype=float), np.asarray(lo)[:, None],
                       np.asarray(hi)[:, None])

    r_plus = clamp(x_hat.r_plus, [0.0] * G, [g.res_up_cap for g in gens])
    r_minus = clamp(x_hat.r_minus, [0.0] * G, [g.res_down_cap for g in gens])
    w_sched = clamp(x_hat.w, [0.0] * J, [w.capacity for w in farms])
    cap = np.array([ln.capacity for ln in lines])
    f_sched = clamp(x_hat.f, -cap, cap)
    wind = np.array([[scenarios.value(omega, w.id, t) for t in range(1, T + 1)]
                     for w in farms]).reshape(J, T)
    load = np.array([[instance.load_at(n, t) for t in range(1, T + 1)] for n in nodes])

    cost = np.concatenate([[g.deploy_up_price for g in gens],
                           [-g.deploy_down_price for g in gens],
                           np.zeros(J), np.full(N, instance.shed_cost),
                           np.zeros(N + L)])
    d_lo = np.where(np.array(nodes) == instance.ref_node, 0.0, -np.inf)
    d_hi = np.where(np.array(nodes) == instance.ref_node, 0.0, np.inf)
    b_eq, lower, upper = [], [], []
    for t in range(T):
        b_eq.append(farm_node @ (w_sched[:, t] - wind[:, t]) - into @ f_sched[:, t])
        b_eq.append(np.zeros(L))
        lower.append(np.concatenate([np.zeros(2 * G + J + N), d_lo, -cap]))
        upper.append(np.concatenate([r_plus[:, t], r_minus[:, t], wind[:, t],
                                     load[:, t], d_hi, cap]))
    res = linprog(np.tile(cost, T), A_eq=a_eq, b_eq=np.concatenate(b_eq),
                  bounds=np.column_stack([np.concatenate(lower), np.concatenate(upper)]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference recourse LP of {omega}: {res.message}")
    return float(res.fun)
