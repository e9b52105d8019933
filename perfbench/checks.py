"""Correctness checks of benchmark rows, computed with plain numpy.

Nothing here imports gspest. Each check returns a list of failure messages;
an empty list means the row passed. The reference values come either from a
separate computation (plain inverses, stepped second-moment recursions, the
frozen-noise mean and covariance) or from a property the method must have.
"""

import csv
import hashlib
import math

import numpy as np

BURN_IN = 0.5
TAIL_Z_BOUND = 5.0  # |tail mean - expected| in standard errors, any seed
POINT_Z_BOUND = 5.0  # the same per iteration, on the 10-station rows
FIRST_POINT_RTOL = 1e-12
TAIL_RTOL = 1e-11  # measured worst case 1.5e-13, on random sets with lambda_min near 1e-7
LAMBDA_RTOL = 1e-12
DETERMINISTIC_RTOL = 1e-9


def covariance_diagonal(n_a: float, n_b: float, n: int, master_seed: int) -> np.ndarray:
    """c_w = n_a |a| + n_b, a ~ N(0, I) from the covariance child seed (key 1)."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(1,))
    seed = int(seq.generate_state(1, np.uint64)[0])
    a = np.random.default_rng(seed).standard_normal(n)
    return n_a * np.abs(a) + n_b * np.ones(n)


def array_sha256(values: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=float).tobytes()).hexdigest()


def tail_slice(t_count: int) -> slice:
    return slice(int(math.floor(BURN_IN * t_count)), t_count)


def tail_z(run_tail_means: np.ndarray, expected_tail_mean: float) -> float:
    """|mean over runs of the per-run tail mean - expected| / its standard error."""
    gap = abs(float(run_tail_means.mean()) - expected_tail_mean)
    se = float(run_tail_means.std(ddof=1) / math.sqrt(run_tail_means.shape[0]))
    if se == 0:
        return 0.0 if gap == 0 else math.inf
    return gap / se


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


# -- checks on every row ----------------------------------------------------

def finite_positive(name: str, emp: np.ndarray, exact: np.ndarray) -> list:
    out = []
    for label, curve in (("empirical", emp), ("exact", exact)):
        bad = ~(np.isfinite(curve) & (curve > 0))
        if bad.any():
            out.append(f"{name}: {label} curve not finite and positive at "
                       f"{int(bad.sum())} of {curve.shape[0]} points")
    return out


def first_point(name: str, exact: np.ndarray, u_f: np.ndarray, signal: np.ndarray) -> list:
    """A zero initial estimate makes the t=1 MSD the band energy |U_f^T x|^2."""
    s = u_f.T @ signal
    energy = float(s @ s)
    err = rel_err(float(exact[0]), energy)
    if not err <= FIRST_POINT_RTOL:
        return [f"{name}: exact curve at t=1 is {float(exact[0])!r}, |U_f^T x|^2 is {energy!r} "
                f"(rel err {err:.2e})"]
    return []


def tail_z_within(name: str, run_tail_means: np.ndarray, expected: np.ndarray,
                  bound: float = TAIL_Z_BOUND) -> list:
    z = tail_z(run_tail_means, float(np.mean(expected[tail_slice(expected.shape[0])])))
    if not z <= bound:
        return [f"{name}: tail z-score {z:.2f} against the expected curve exceeds {bound}"]
    return []


def covariance_digest(name: str, c_w: np.ndarray, digest: str) -> list:
    if array_sha256(c_w) != digest:
        return [f"{name}: noise covariance digest differs from the seed layout's c_w"]
    return []


# -- RLS and LMS tails --------------------------------------------------------

def rls_noise_gain(u_s: np.ndarray, c_s: np.ndarray) -> float:
    """tr(M), M the plain inverse of the whitened sampled Gram matrix."""
    rows = u_s / np.sqrt(c_s)[:, None]
    return float(np.trace(np.linalg.inv(rows.T @ rows)))


def rls_tail(name: str, exact: np.ndarray, u_s: np.ndarray, c_s: np.ndarray, s: np.ndarray,
             lam: float) -> list:
    """The RLS exact curve tends to (1 - lam) / (1 + lam) tr(M).

    Compared at the last point T with the bias remainder included:
    lam^(2(T-1)) |s|^2 + (1 - lam^(2(T-1))) (1 - lam) / (1 + lam) tr(M).
    """
    steady = (1.0 - lam) / (1.0 + lam) * rls_noise_gain(u_s, c_s)
    decay = lam ** (2 * (exact.shape[0] - 1))
    reference = decay * float(s @ s) + (1.0 - decay) * steady
    err = rel_err(float(exact[-1]), reference)
    if not err <= TAIL_RTOL:
        return [f"{name}: RLS exact tail {float(exact[-1])!r} != (1-lam)/(1+lam) tr(M) "
                f"= {steady!r} plus bias remainder (rel err {err:.2e})"]
    return []


def _lms_operators(u_s, c_s, mu):
    f = u_s.shape[1]
    a_mat = np.eye(f) - mu * (u_s.T @ u_s)
    q_mat = mu**2 * (u_s.T @ (c_s[:, None] * u_s))
    return a_mat, q_mat


def lms_second_moment_trace(u_s: np.ndarray, c_s: np.ndarray, s: np.ndarray, mu: float,
                            t: int) -> float:
    """tr P(t) for P <- A P A^T + mu^2 Q from P(1) = s s^T, by repeated doubling.

    P(t) = A^n s s^T A^nT + sum_{j<n} A^j Q A^jT with n = t - 1. The pair
    (A^a, sum_{j<a}) is doubled (a -> 2a) or stepped (a -> a + 1) along the
    bits of n.
    """
    a_mat, q_mat = _lms_operators(u_s, c_s, mu)
    power = np.eye(a_mat.shape[0])
    total = np.zeros_like(a_mat)
    for bit in bin(t - 1)[2:]:
        total = total + power @ total @ power.T
        power = power @ power
        if bit == "1":
            total = q_mat + a_mat @ total @ a_mat.T
            power = a_mat @ power
    decayed = power @ s
    return float(decayed @ decayed + np.trace(total))


def lms_second_moment_curve(u_s: np.ndarray, c_s: np.ndarray, s: np.ndarray, mu: float,
                            t_count: int) -> np.ndarray:
    """tr P(t) for t = 1..t_count, stepping the recursion once per iteration."""
    a_mat, q_mat = _lms_operators(u_s, c_s, mu)
    p_mat = np.outer(s, s)
    out = np.empty(t_count)
    for i in range(t_count):
        out[i] = np.trace(p_mat)
        p_mat = a_mat @ p_mat @ a_mat.T + q_mat
    return out


def lms_last_point(name: str, exact: np.ndarray, u_s: np.ndarray, c_s: np.ndarray,
                   s: np.ndarray, mu: float) -> list:
    reference = lms_second_moment_trace(u_s, c_s, s, mu, exact.shape[0])
    err = rel_err(float(exact[-1]), reference)
    if not err <= TAIL_RTOL:
        return [f"{name}: LMS exact last point {float(exact[-1])!r} != second-moment recursion "
                f"{reference!r} (rel err {err:.2e})"]
    return []


# -- frozen noise and per-iteration agreement ---------------------------------

def frozen_expectation(algorithm: str, u_s: np.ndarray, c_s: np.ndarray, s: np.ndarray,
                       param: float, t_count: int) -> np.ndarray:
    """Expected MSD when one noise vector is drawn per run and reused every step.

    The error is delta_t = mean_t + K_t b with b the per-run injection. LMS:
    mean_t = A^(t-1) (-s), K_(t+1) = I + A K_t, C_b = mu^2 U_S^T C U_S, so
    E|delta_t|^2 = |A^(t-1) s|^2 + tr(K_t C_b K_t^T). RLS: the same with
    A = lam I and C_b = (1 - lam)^2 M, which gives
    lam^(2(t-1)) |s|^2 + (1 - lam^(t-1))^2 tr(M).
    """
    f = s.shape[0]
    if algorithm == "lms":
        a_mat, c_b = _lms_operators(u_s, c_s, param)
    else:
        rows = u_s / np.sqrt(c_s)[:, None]
        a_mat = param * np.eye(f)
        c_b = (1.0 - param) ** 2 * np.linalg.inv(rows.T @ rows)
    mean = -s.astype(float)
    k_mat = np.zeros((f, f))
    out = np.empty(t_count)
    for i in range(t_count):
        out[i] = mean @ mean + np.trace(k_mat @ c_b @ k_mat.T)
        mean = a_mat @ mean
        k_mat = np.eye(f) + a_mat @ k_mat
    return out


def per_point_within(name: str, mean: np.ndarray, se: np.ndarray, expected: np.ndarray,
                     bound: float = POINT_Z_BOUND) -> list:
    """Every iteration within bound standard errors; zero-variance points exact."""
    gap = np.abs(mean - expected)
    deterministic = gap <= DETERMINISTIC_RTOL * expected
    bad = np.nonzero(~((gap <= bound * se) | deterministic))[0]
    if bad.size:
        with np.errstate(divide="ignore", invalid="ignore"):
            worst = float(np.max(gap[bad] / se[bad]))
        return [f"{name}: {bad.size} iterations outside {bound} SE of the expected curve "
                f"(first t={int(bad[0]) + 1}, worst z {worst:.2f})"]
    return []


def close_curves(name: str, label: str, curve: np.ndarray, reference: np.ndarray,
                 rtol: float = TAIL_RTOL) -> list:
    err = float(np.max(np.abs(curve - reference) / np.abs(reference)))
    if not err <= rtol:
        return [f"{name}: {label} differs from the independent curve (max rel err {err:.2e})"]
    return []


# -- files and sampling sets --------------------------------------------------

def read_results_columns(path: str) -> dict:
    """The results CSV as float columns, read with the csv module alone."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {col: np.array([float(row[i]) for row in body]) for i, col in enumerate(header)}


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return False
    nan_a, nan_b = np.isnan(a), np.isnan(b)
    return bool(np.array_equal(nan_a, nan_b)
                and np.array_equal(a[~nan_a].view(np.int64), b[~nan_b].view(np.int64)))


def csv_matches(name: str, path: str, emp_db: np.ndarray, paper_db: np.ndarray,
                exact_db: np.ndarray) -> list:
    cols = read_results_columns(path)
    expected = {"t": np.arange(1, emp_db.shape[0] + 1, dtype=float), "msd_emp_db": emp_db,
                "msd_theory_paper_db": paper_db, "msd_theory_exact_db": exact_db}
    if set(cols) != set(expected):
        return [f"{name}: CSV columns {sorted(cols)} != {sorted(expected)}"]
    return [f"{name}: CSV column {col} differs from the in-memory curve"
            for col, values in expected.items() if not same_bits(cols[col], values)]


def lambda_min(u_f: np.ndarray, indices) -> float:
    rows = u_f[list(indices), :]
    return float(np.linalg.eigvalsh(rows.T @ rows)[0])


def greedy_lambda(name: str, u_f: np.ndarray, indices, manifest_lambda: float,
                  random_lambda: float | None) -> list:
    """The greedy set's lambda_min matches its manifest and beats a random set."""
    out = []
    lam = lambda_min(u_f, indices)
    if not rel_err(manifest_lambda, lam) <= LAMBDA_RTOL:
        out.append(f"{name}: manifest lambda_min {manifest_lambda!r} != eigvalsh {lam!r}")
    if random_lambda is not None and not lam > random_lambda:
        out.append(f"{name}: greedy lambda_min {lam:.3e} does not exceed the random set's "
                   f"{random_lambda:.3e}")
    return out
