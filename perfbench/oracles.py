"""Checks of the program's outputs, independent of graphkern's own code.

Each check reads what a CLI command wrote, recomputes what it can with
numpy alone, and raises :class:`OracleError` on the first disagreement.
On success it returns the figures the benchmark reports (the accuracy of
the output and exact counts taken from it).
"""

import csv
import json
import math

import numpy as np

# Relative tolerances, far above round-off and far below any real error.
RESIDUAL_TOL = 1e-8
PREDICT_TOL = 1e-9
FEASIBILITY_TOL = 1e-9


class OracleError(ValueError):
    """An output of the program failed a check."""


def gaussian_grid(grid):
    return np.linspace(grid["lo"], grid["hi"], int(grid["count"]))


def sq_distances(a, b):
    """Squared Euclidean distances between the rows of ``a`` and ``b``."""
    d = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * a @ b.T
    return np.maximum(d, 0.0)


def combined_kernel(x_new, x_train, rho, variances):
    """``sum_s rho_s exp(-||x - x'||^2 / (2 s2_s))`` over the active kernels."""
    sq = sq_distances(x_new, x_train)
    out = np.zeros_like(sq)
    for weight, s2 in zip(rho, variances):
        if weight != 0.0:
            out += weight * np.exp(-sq / (2.0 * s2))
    return out


def laplacian(adjacency):
    return np.diag(adjacency.sum(axis=1)) - adjacency


def read_model(path):
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return {
            "x": np.array(payload["training_inputs"], dtype=float),
            "psi": np.array(payload["psi"], dtype=float),
            "rho": np.array(payload["rho"], dtype=float),
            "alpha": float(payload["alpha"]),
            "beta": float(payload["beta"]),
        }
    except (KeyError, TypeError, ValueError) as err:
        raise OracleError(f"{path}: unreadable model: {err!r}") from err


def check_weights(rho, num_kernels, radius, q):
    if rho.shape != (num_kernels,) or not np.all(np.isfinite(rho)):
        raise OracleError(f"rho has shape {rho.shape} or non-finite entries")
    if np.any(rho < 0):
        raise OracleError(f"rho has negative entries (min {rho.min():.3e})")
    norm = float(np.sum(rho)) if q == 1 else float(np.linalg.norm(rho))
    if norm > radius * (1.0 + FEASIBILITY_TOL):
        raise OracleError(f"||rho||_{q} = {norm!r} exceeds radius {radius}")


def check_fit(model_path, inputs, targets, adjacency, grid, radius, q):
    """Check a fitted ``model.json`` against the system it must solve.

    The relative residual of ``(K + alpha I) Psi + beta K Psi L - T`` is
    computed with K rebuilt from the stored weights over the benchmark's
    own inputs and L from the benchmark's own adjacency.  Returns the
    in-sample NMSE of ``K Psi`` against the targets and the residual.
    """
    m = read_model(model_path)
    n, nodes = targets.shape
    if m["x"].shape != inputs.shape or not np.allclose(m["x"], inputs, rtol=1e-12, atol=0.0):
        raise OracleError("model training inputs differ from the fitted rows")
    if m["psi"].shape != (n, nodes) or not np.all(np.isfinite(m["psi"])):
        raise OracleError(f"psi has shape {m['psi'].shape} or non-finite entries")
    variances = gaussian_grid(grid)
    check_weights(m["rho"], variances.size, radius, q)
    k = combined_kernel(inputs, inputs, m["rho"], variances)
    kpsi = k @ m["psi"]
    lhs = kpsi + m["alpha"] * m["psi"] + m["beta"] * kpsi @ laplacian(adjacency)
    residual = float(np.linalg.norm(lhs - targets) / np.linalg.norm(targets))
    if not residual <= RESIDUAL_TOL:
        raise OracleError(f"relative residual {residual:.3e} exceeds {RESIDUAL_TOL:.0e}")
    return {"nmse": nmse(kpsi, targets), "residual": residual}


def check_predict(model_path, pred_path, new_inputs, names, grid, sample):
    """Check ``predict`` output: shape, header, and ``Psi^T k(x)`` on sampled rows.

    Returns the prediction matrix.
    """
    with open(pred_path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or [c.strip() for c in rows[0]] != list(names):
        raise OracleError("prediction header does not name the graph nodes")
    try:
        pred = np.array([[float(c) for c in row] for row in rows[1:]])
    except ValueError as err:
        raise OracleError(f"non-numeric prediction: {err}") from err
    if pred.shape != (new_inputs.shape[0], len(names)) or not np.all(np.isfinite(pred)):
        raise OracleError(f"predictions have shape {pred.shape} or non-finite entries")
    m = read_model(model_path)
    expect = combined_kernel(new_inputs[sample], m["x"], m["rho"], gaussian_grid(grid)) @ m["psi"]
    err = np.linalg.norm(pred[sample] - expect, axis=1)
    scale = np.maximum(np.linalg.norm(expect, axis=1), 1e-300)
    worst = float(np.max(err / scale))
    if not worst <= PREDICT_TOL:
        raise OracleError(f"prediction differs from Psi^T k(x) by {worst:.3e} (relative)")
    return pred


def check_sweep(out_dir, n_train_values, n_realizations, methods, radius):
    """Check an ``experiment`` output directory.

    Every NMSE must be finite and positive, ``n_failed`` must be
    consistent with the per-method success counts, and the CSV summary
    must agree with ``report.json``.  Returns the trial count, the failed
    trial count, the multi-kernel NMSE summed over trials and the
    optimizer iterations summed over multi-kernel trials.
    """
    with open(out_dir / "report.json") as fh:
        results = json.load(fh)["results"]
    if [r["n_train"] for r in results] != list(n_train_values):
        raise OracleError("report does not cover the configured training sizes")
    trials = failed = ok_multi = 0
    nmse_sum = iter_sum = 0.0
    for r in results:
        if r["n_realizations"] != n_realizations:
            raise OracleError(f"n_train={r['n_train']}: wrong realization count")
        missing = []
        for method in methods:
            n_ok = r["n_ok"][method]
            mean, std = r["nmse_mean"][method], r["nmse_std"][method]
            if not (isinstance(n_ok, int) and 0 <= n_ok <= n_realizations):
                raise OracleError(f"n_train={r['n_train']}: bad n_ok for {method}")
            if n_ok and not (math.isfinite(mean) and mean > 0 and math.isfinite(std) and std >= 0):
                raise OracleError(f"n_train={r['n_train']}: NMSE of {method} is {mean!r}")
            missing.append(n_realizations - n_ok)
        n_failed = r["n_failed"]
        # a failed trial misses at least one method, and a missing method
        # result comes from a failed trial
        if not (isinstance(n_failed, int) and max(missing) <= n_failed <= sum(missing)):
            raise OracleError(f"n_train={r['n_train']}: n_failed={n_failed!r} inconsistent")
        trials += n_realizations
        failed += n_failed
        n_multi = r["n_ok"]["multi_kernel"]
        if n_multi:
            ok_multi += n_multi
            nmse_sum += n_multi * r["nmse_mean"]["multi_kernel"]
            iter_sum += n_multi * r["mean_iterations"]
    _check_sweep_csvs(out_dir, results, methods, radius)
    return {"trials": trials, "failed": failed, "ok_multi": ok_multi,
            "nmse_sum": nmse_sum, "iter_sum": iter_sum}


def _check_sweep_csvs(out_dir, results, methods, radius):
    with open(out_dir / "nmse_vs_ntrain.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expect = {(m, r["n_train"]): r["nmse_mean"][m] for r in results for m in methods}
    got = {(row["method"], int(row["n_train"])): float(row["nmse_mean"]) for row in rows}
    if got.keys() != expect.keys() or any(
        not (got[k] == expect[k] or (math.isnan(got[k]) and math.isnan(expect[k]))) for k in expect
    ):
        raise OracleError("nmse_vs_ntrain.csv disagrees with report.json")
    with open(out_dir / "rho_instance.csv", newline="") as fh:
        rho = np.array([float(row["rho"]) for row in csv.DictReader(fh)])
    if np.any(rho < 0) or rho.sum() > radius * (1.0 + FEASIBILITY_TOL):
        raise OracleError("rho_instance.csv holds weights outside the l1 ball")


def nmse(pred, truth):
    return float(np.sum((pred - truth) ** 2) / np.sum(truth**2))


def frank_wolfe_gap(grad, rho, radius, q):
    """Frank-Wolfe duality gap of the weight problem at ``rho``.

    Bounds ``gamma(rho) - gamma*`` for the convex reduced objective over
    ``{rho >= 0, ||rho||_q <= R}`` (Jaggi 2013).
    """
    if q == 1:
        return float(grad @ rho - radius * min(float(grad.min()), 0.0))
    return float(grad @ rho + radius * np.linalg.norm(np.minimum(grad, 0.0)))
