"""Identifying a reciprocal AR model from sample realizations.

Circular sample covariances are sufficient statistics, so estimation
reduces to the maximum-entropy extension of the sample band: the
estimated coefficients are the band of the extension's inverse.  The
demo also contrasts this with the two-sided linear solve, which needs
twice as many lags.
"""

import numpy as np

import circmax as cm

np.set_printoptions(precision=5, suppress=True)

truth = cm.ReciprocalModel(m=1, n=2, N=8,
                           M_blocks=np.array([[[1.72736]], [[-0.76438]], [[0.09255]]]))
print("true coefficients:", truth.M_blocks.ravel())

print("\nestimation error vs sample count (fixed seed per run):")
print(f"{'T':>8} {'coefficients':>34} {'error':>10}")
for T in (100, 1000, 10000, 100000):
    data = cm.sample(truth, T, seed=7000)
    res = cm.identify(data, n=2)
    err = np.linalg.norm(res.model.M_blocks - truth.M_blocks)
    print(f"{T:8d} {np.array2string(res.model.M_blocks.ravel()):>34} {err:10.5f}")

# likelihood of the estimate dominates nearby models
data = cm.sample(truth, 5000, seed=7000)
res = cm.identify(data, n=2)
rng = np.random.default_rng(2)
worse = valid = 0
for _ in range(200):
    jitter = res.model.M_blocks + 0.05 * rng.standard_normal((3, 1, 1))
    jitter[0] = abs(jitter[0])
    try:
        other = cm.ReciprocalModel(1, 2, 8, jitter)
        L = cm.log_likelihood(other, res.stats)
    except cm.CircmaxError:
        continue
    valid += 1
    worse += L <= res.log_likelihood
print(f"\nestimate beats {worse} of {valid} valid jittered models in likelihood")

# with exact lags, the two-sided solve (needs lags 0..2n) agrees with the
# entropy route (needs only lags 0..n)
C = cm.covariance_of_model(truth)
lags = np.array([C.lag(k) for k in range(5)])
F, delta = cm.yule_walker(lags)
d_inv = np.linalg.inv(delta)
two_sided = np.array([d_inv[0, 0], (d_inv @ F[2])[0, 0], (d_inv @ F[3])[0, 0]])
entropy_route = cm.solve(C.band(2), 8).model.M_blocks.ravel()
print("\ntwo-sided solve on exact lags 0..4: ", two_sided)
print("entropy route on exact lags 0..2:   ", entropy_route)
print("agreement:", np.abs(two_sided - entropy_route).max() < 1e-7)
