"""Verification engine: numerical oracles and saddle-structure diagnostics.

Finite-difference derivative oracles, local-minima enumeration by
multi-start search (each endpoint polished through the sgd run loop,
then certified by its tangent gradient and curvature), escape statistics
from exact saddles, the exact closed form for SGD on a quadratic model
driven by a known perturbation stream, and the invariant battery behind
``strictsaddle verify``.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from . import ica, manifold, objectives, tensor4
from .sgd import (
    STACK_ROWS,
    RecordedPerturbations,
    SgdConfig,
    _unit_rows,
    projected_trials,
    row_norms,
    trial_rng,
    write_csv,
)

__all__ = [
    "fd_gradient",
    "fd_hessian",
    "SignedPermutationMatcher",
    "CatalogEntry",
    "MinimaCatalog",
    "polish",
    "enumerate_minima",
    "coupling_closed_form",
    "escape_statistics",
    "derivative_check",
    "geometry_check",
    "CheckResult",
    "run_checks",
]

# Catalog entries closer than this are one minimum.
DEDUP_RADIUS = 1e-3
# Polish: noise-free projected descent until ||chi|| <= POLISH_TOL.
POLISH_CONFIG = SgdConfig(eta=0.02, iterations=500, noise_scale=0.0, record_every=500)
POLISH_TOL = 1e-11

# The finite differences call f on (K, n) stacks of points, each formed as
# w + e_i (+ e_j) with e_i = h * (row i of I), as a one-point loop forms it;
# when f gives a row of a stack its value alone, the result is that loop's.


def _stencil(f, points, count, width):
    """f at the ``width`` point sets ``points(lo, hi)`` forms for entries
    lo..hi-1 of ``count``, in stacks of at most STACK_ROWS rows: (width, count)."""
    out = np.empty((width, count))
    chunk = max(1, STACK_ROWS // width)
    for lo in range(0, count, chunk):
        hi = min(lo + chunk, count)
        out[:, lo:hi] = np.reshape(f(np.concatenate(points(lo, hi))), (width, hi - lo))
    return out


def fd_gradient(f, w):
    """Central-difference gradient with step h = 1e-5 * max(1, ||w||)."""
    w = np.asarray(w, dtype=float)
    h = 1e-5 * max(1.0, float(np.linalg.norm(w)))
    steps = h * np.eye(w.size)
    up, down = _stencil(f, lambda lo, hi: (w + steps[lo:hi], w - steps[lo:hi]), w.size, 2)
    g = (up - down) / (2.0 * h)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite values in finite-difference gradient")
    return g


def fd_hessian(f, w):
    """Central second differences, symmetrized.

    Step h = 1e-4 * max(1, ||w||): second differences divide round-off by
    h^2, so the optimum sits near eps^{1/4}, coarser than the gradient
    step.  Entry (i, j), j >= i, is evaluated once and mirrored.
    """
    w = np.asarray(w, dtype=float)
    h = 1e-4 * max(1.0, float(np.linalg.norm(w)))
    n = w.size
    steps = h * np.eye(n)
    rows, cols = np.triu_indices(n)

    def points(lo, hi):
        ei, ej = steps[rows[lo:hi]], steps[cols[lo:hi]]
        return w + ei + ej, w + ei - ej, w - ei + ej, w - ei - ej

    pp, pm, mp, mm = _stencil(f, points, rows.size, 4)
    H = np.empty((n, n))
    H[rows, cols] = H[cols, rows] = (pp - pm - mp + mm) / (4.0 * h * h)
    if not np.all(np.isfinite(H)):
        raise FloatingPointError("non-finite values in finite-difference Hessian")
    return 0.5 * (H + H.T)


class SignedPermutationMatcher:
    """Nearest signed permutation of the basis rows, in Frobenius distance.

    Minimizing sum_i ||u_i - kappa_i a_{pi(i)}||^2 over signs kappa and
    permutations pi is the assignment problem maximizing
    sum_i |<u_i, a_{pi(i)}>|, with kappa_i the sign of <u_i, a_{pi(i)}>.
    It is solved exactly by scoring all d! permutations (the first best
    one wins), which costs d! sums of d terms: every caller has d <= 4.
    """

    def __init__(self, basis):
        self.basis = basis

    def nearest(self, w):
        w = np.asarray(w, dtype=float)
        d = self.basis.d
        U = w.reshape(d, d)
        corr = U @ self.basis.vectors.T
        rows = np.arange(d)
        perm = max(itertools.permutations(range(d)), key=lambda p: np.abs(corr[rows, p]).sum())
        V = np.copysign(1.0, corr[rows, perm])[:, None] * self.basis.vectors[list(perm)]
        return V.reshape(-1), float(np.linalg.norm(w - V.reshape(-1)))


@dataclass
class CatalogEntry:
    point: np.ndarray
    min_eig: float
    hits: int = 1


@dataclass
class MinimaCatalog:
    """Distinct local minima found by multi-start search; ``diverged`` starts."""

    entries: list = field(default_factory=list)
    diverged: int = field(default=0, init=False)

    def add(self, point, min_eig):
        """Insert or merge a minimum; returns the matching entry."""
        for entry in self.entries:
            if np.linalg.norm(point - entry.point) <= DEDUP_RADIUS:
                entry.hits += 1
                return entry
        entry = CatalogEntry(np.array(point, dtype=float), float(min_eig))
        self.entries.append(entry)
        return entry

    def __len__(self):
        return len(self.entries)

    def sorted_points(self):
        """Entries sorted lexicographically, for order-independent comparison."""
        return sorted(self.entries, key=lambda e: tuple(np.round(e.point, 9)))

    def to_csv(self, path):
        dim = self.entries[0].point.size if self.entries else 0
        write_csv(path, ["min_eig", "hits"] + [f"w{k}" for k in range(dim)],
                  ([e.min_eig, e.hits, *e.point.tolist()] for e in self.sorted_points()))


def polish(problem, w):
    """Noise-free projected gradient descent to sharpen feasible endpoints.

    ``w`` is one point or a (K, n) stack.  Every row runs as an
    exact-gradient trial under POLISH_CONFIG and ends at its first point,
    the start included, with ||chi|| <= POLISH_TOL, so a row already
    there is returned as it is.  The stop reads chi from the gradient the
    step then takes, so each step evaluates the gradient once.
    """
    W = np.asarray(w, dtype=float)
    rows = W.reshape(-1, W.shape[-1])

    def polished(V, f, G):
        return row_norms(manifold.chi_from_gradient(problem.constraints, V, G)) <= POLISH_TOL

    records = projected_trials(len(rows), lambda k: (rows[k], None, problem, None), POLISH_CONFIG, stop=polished)
    return np.array([record.final_point for record in records]).reshape(W.shape)


def enumerate_minima(problem, n_starts, config):
    """Multi-start projected noisy SGD, polish, and catalog.

    Start k uses the RNG substream ``trial_rng(config.seed, k)``; the
    starts run as one stack of trials with exact gradients.  After the
    noisy phase the endpoints are polished by exact projected descent and
    catalogued in start order.  An endpoint self-certifies by second
    order: ||chi|| <= 1e-8 and positive tangent curvature, both computed
    for the whole polished stack at once.  Starts whose run diverged are
    counted in ``catalog.diverged``.
    """
    catalog = MinimaCatalog()

    def start(k):
        rng = trial_rng(config.seed, k)
        return problem.random_feasible(rng), rng, problem, None

    records = projected_trials(n_starts, start, config)
    ends = np.array([r.final_point for r in records if not r.diverged]).reshape(-1, problem.dim)
    catalog.diverged = n_starts - len(ends)
    ends = polish(problem, ends)
    ends = ends[row_norms(manifold.tangent_gradient(problem, ends)) <= 1e-8]
    for w, eig in zip(ends, manifold.min_tangent_eig(problem, ends)[0].tolist()):
        if eig > 0:
            catalog.add(w, eig)
    return catalog


def coupling_closed_form(g, H, noise_stream, eta, t):
    """Exact state of SGD on a quadratic model after t steps.

    For f(w) = f0 + g.(w - w0) + (1/2)(w - w0).H(w - w0) and updates
    w_{k+1} = w_k - eta (grad f(w_k) + xi_k) started at w0, returns

        gradient_t     = (I - eta H)^t g  -  eta H sum_k (I - eta H)^{t-k-1} xi_k
        displacement_t = -eta sum_{k<t} (I - eta H)^k g
                         - eta sum_k (I - eta H)^{t-k-1} xi_k

    evaluated in the eigenbasis of H.  The finite sums are evaluated
    literally, so near-zero eigenvalues need no special casing.
    """
    g = np.asarray(g, dtype=float)
    H = np.asarray(H, dtype=float)
    if np.max(np.abs(H - H.T)) > 1e-12:
        raise ValueError("H must be symmetric")
    if t < 0:
        raise ValueError("t must be >= 0")
    if len(noise_stream) < t:
        raise ValueError(f"noise stream has {len(noise_stream)} entries, need {t}")

    lam, V = np.linalg.eigh(H)
    m = 1.0 - eta * lam
    g_rot = V.T @ g

    if t == 0:
        return g.copy(), np.zeros_like(g)

    powers = m[None, :] ** np.arange(t)[:, None]  # powers[k] = m^k
    xi_rot = np.array([V.T @ np.asarray(noise_stream[k], dtype=float) for k in range(t)])
    # sum_k m^{t-k-1} xi_k  with exponents t-1, t-2, ..., 0
    noise_acc = np.einsum("kd,kd->d", powers[::-1], xi_rot)
    geom = powers.sum(axis=0)

    gradient_t = V @ (m**t * g_rot - eta * lam * noise_acc)
    displacement_t = V @ (-eta * geom * g_rot - eta * noise_acc)
    return gradient_t, displacement_t


def escape_statistics(problem, saddle_point, n_trials, config, threshold=None):
    """Monte-Carlo escape behaviour of projected noisy SGD from a saddle.

    A trial escapes when f drops below f(saddle) - threshold within the
    step budget; the test runs before every step, so a trial stops at the
    first point that passes, read from the value the step's exact gradient
    is evaluated with, and ``median_steps`` is the median
    first-passage time over escaping trials.  Default threshold is
    0.1 * |f(saddle)| floored at 1e-3.  Trial k uses the substream
    ``trial_rng(config.seed, k)``; the trials run as one stack, with exact
    gradients, through :func:`sgd.projected_trials`, so its checks apply:
    the saddle must be feasible to 1e-10 (ValueError otherwise), and a
    recorded iterate off the feasible set or a perturbation over the
    oracle bound raises RuntimeError.  Escape and f decrease are read from
    each record's ``final_f``, f at its final point; a diverged trial has
    not escaped and its f decrease is nan.  ``diverged`` counts those trials.
    """
    w_star = np.asarray(saddle_point, dtype=float)
    f0 = problem.value(w_star)
    if threshold is None:
        threshold = max(0.1 * abs(f0), 1e-3)
    target = f0 - threshold

    records = projected_trials(n_trials, lambda k: (w_star, trial_rng(config.seed, k), problem, None),
                               config, stop=lambda W, f, G: f <= target)
    f_final = np.array([np.nan if r.diverged else r.final_f for r in records])
    first_passage = [r.n_steps if f <= target else None for r, f in zip(records, f_final.tolist())]
    decreases = (f0 - f_final).tolist()

    escaped = [s for s in first_passage if s is not None]
    return {
        "escape_fraction": len(escaped) / n_trials,
        "median_steps": float(np.median(escaped)) if escaped else None,
        "mean_f_decrease": float(np.mean(decreases)),
        "threshold": threshold,
        "per_trial_steps": first_passage,
        "per_trial_decrease": decreases,
        "diverged": sum(r.diverged for r in records),
    }


def _rel_err(got, want):
    """||got - want|| / max(1, ||want||); the floor guards near-zero targets."""
    diff = float(np.linalg.norm(np.asarray(got) - np.asarray(want)))
    return diff / max(1.0, float(np.linalg.norm(np.asarray(want))))


def derivative_check(problem, n_points, rng):
    """Worst relative error of analytic tangent gradient and Lagrangian
    Hessian against finite-difference reconstructions.

    The oracle recomputes the multipliers from the finite-difference
    ambient gradient, so the analytic derivative code is not trusted
    anywhere on the oracle side.
    """
    worst_chi, worst_m = 0.0, 0.0
    for _ in range(n_points):
        w = problem.random_feasible(rng)
        C = problem.constraints.constraint_gradients(w)

        g_fd = fd_gradient(problem.value, w)
        lam_fd, *_ = np.linalg.lstsq(C, g_fd, rcond=None)
        chi_fd = g_fd - C @ lam_fd
        chi_an = manifold.tangent_gradient(problem, w)
        worst_chi = max(worst_chi, _rel_err(chi_an, chi_fd))

        h_fd = fd_hessian(problem.value, w)
        m_fd = h_fd - problem.constraints.weighted_constraint_hessian(lam_fd)
        m_an = manifold.lagrangian_hessian(problem, w)
        worst_m = max(worst_m, _rel_err(m_an, m_fd))
    return worst_chi, worst_m


def multiplier_check(problem, closed_form, n_points, rng):
    """Worst |closed-form multipliers - pseudo-inverse multipliers|.

    The oracle solves lstsq on C(w) itself; both the coordinate closed
    form given and :func:`manifold.lagrange_multipliers` are compared
    against it.
    """
    worst = 0.0
    for _ in range(n_points):
        w = problem.random_feasible(rng)
        C = problem.constraints.constraint_gradients(w)
        lam, *_ = np.linalg.lstsq(C, problem.gradient(w), rcond=None)
        for got in (closed_form(w), manifold.lagrange_multipliers(problem, w)):
            worst = max(worst, float(np.max(np.abs(got - lam))))
    return worst


def geometry_check(constraints, n_pairs, etas, rng):
    """Margin audit of the manifold geometry bounds with curvature radius 1.

    For random feasible pairs (w0, w) and unit directions, checks

      (a) ||P_N0 (w - w0)|| <= ||w - w0||^2 / 2
      (b) ||P_N0 (w - w0)|| <= ||P_T0 (w - w0)||^2   when ||w - w0|| < 1
      (c) ||P_N0 v|| <= ||w - w0||   for unit v tangent at w
      (d) ||P_T0 v|| <= ||w - w0||   for unit v normal at w
      (e) ||Pi(w0 + eta v) - (w0 + eta P_T0 v)|| <= 4 eta^2  for unit v

    The pairs are checked as one (n_pairs, n) stack.  One
    ``rng.standard_normal((n_pairs, 5, n))`` call draws, pair by pair,
    w0, w, the Gaussian projected onto the tangent space at w for (c), the
    one projected onto its normal space for (d), and the direction for
    (e), and ``rng`` draws nothing else.  A w0 or w with a block norm
    below 1e-12 raises ValueError, as ``project`` does; a tangent or normal
    draw whose projection has norm at most 1e-12 is skipped; a direction of
    norm at most NOISE_NORM_FLOOR is zero, as a degenerate noise draw of
    the run loop is.

    Returns a dict with the violation count and the worst signed margin
    (lhs - rhs, nonpositive when the bound holds) per inequality.
    """
    n = constraints.n
    margins = {k: -np.inf for k in ("normal_quadratic", "normal_by_tangent", "tangent_drift", "normal_drift", "projection_step")}
    violations = {k: 0 for k in margins}

    def note(key, lhs, rhs):
        margins[key] = max(margins[key], float(np.max(lhs - rhs, initial=-np.inf)))
        violations[key] += int(np.count_nonzero(lhs > rhs + 1e-12))

    w0, w, tangent_draw, normal_draw, direction = np.moveaxis(rng.standard_normal((n_pairs, 5, n)), 1, 0)
    w0, w = constraints.project(w0), constraints.project(w)
    direction = _unit_rows(direction[:, None])[:, 0]

    delta = w - w0
    dist = row_norms(delta)
    normal_part = row_norms(constraints.normal_project(w0, delta))
    note("normal_quadratic", normal_part, 0.5 * dist**2)
    near = dist < 1.0
    tangent_part = row_norms(constraints.tangent_project(w0[near], delta[near]))
    note("normal_by_tangent", normal_part[near], tangent_part**2)

    v = constraints.tangent_project(w, tangent_draw)
    nrm = row_norms(v)
    kept = nrm > 1e-12
    v = v[kept] / nrm[kept, None]
    note("tangent_drift", row_norms(constraints.normal_project(w0[kept], v)), dist[kept])

    u = constraints.normal_project(w, normal_draw)
    nrm = row_norms(u)
    kept = nrm > 1e-12
    u = u[kept] / nrm[kept, None]
    note("normal_drift", row_norms(constraints.tangent_project(w0[kept], u)), dist[kept])

    for eta in etas:
        stepped = constraints.project(w0 + eta * direction)
        surrogate = w0 + eta * constraints.tangent_project(w0, direction)
        note("projection_step", row_norms(stepped - surrogate), 4.0 * eta**2)

    return {"violations": violations, "margins": margins, "total_violations": int(sum(violations.values()))}


def exhaustive_sign_vectors(d):
    """All 2^d sign vectors in {-1,+1}^d, as rows."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


def pairing_expectation_check(d, n_forms, rng):
    """Exact expectation identity behind the ICA estimator.

    Over the 2^d equiprobable sign sources x, the empirical mean of
    (1/2)(Z - y^{(4)}) applied as the form (u,u,v,v) must equal
    T(u,u,v,v) of the orthogonal tensor whose components are the mixing
    columns, exactly up to round-off.  T(u,u,v,v) is evaluated through
    the decomposition basis; no tensor is built.
    """
    model = ica.IcaModel.random(d, rng)
    basis = model.component_basis()
    signs = exhaustive_sign_vectors(d)
    ys = signs @ model.A.T
    worst = 0.0
    for _ in range(n_forms):
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        mean = np.mean([ica.z_minus_y4_form(y, u, v) for y in ys])
        xu, xv = tensor4.basis_coords(basis, u), tensor4.basis_coords(basis, v)
        want = tensor4.coords_form_scalar(xu, xu, xv, xv)
        worst = max(worst, abs(mean - want))
    return worst


def _sampled_mean_error(problem, W, per_sample):
    """Worst |mean per-sample gradient - analytic gradient| over the points
    W, given every point's per-sample gradients as (points, samples, d, d)."""
    mean = per_sample.reshape(*per_sample.shape[:2], -1).mean(axis=1)
    return float(np.max(np.abs(mean - problem.gradient(W))))


def ica_unbiasedness_check(d, n_points, rng):
    """Exhaustive mean of the ICA stochastic gradient vs the analytic one,
    in one stacked call with each sign source a batch of one."""
    model = ica.IcaModel.random(d, rng)
    problem = objectives.correlation_objective(basis=model.component_basis(), halved=True)
    ys = exhaustive_sign_vectors(d) @ model.A.T
    W = np.array([problem.random_feasible(rng) for _ in range(n_points)])
    return _sampled_mean_error(problem, W, ica.minibatch_gradient(W.reshape(-1, 1, d, d), ys[:, None, :]))


def simple_sampler_check(d, n_points, rng):
    """Exact mean of the atomic sampler gradient vs the analytic one, in
    one stacked call."""
    basis = tensor4.OrthoBasis.random(d, rng)
    problem = objectives.correlation_objective(basis=basis, halved=True)
    W = np.array([problem.random_feasible(rng) for _ in range(n_points)])
    atoms = ica.SimpleSampler(basis).atoms
    return _sampled_mean_error(problem, W, ica.simple_correlation_gradient(W.reshape(-1, 1, d, d), atoms))


def coupling_check(n_instances, d, t, eta, seed):
    """Closed form vs replayed step simulation on random quadratics."""
    worst = 0.0
    for k in range(n_instances):
        rng = trial_rng(seed, k)
        w0 = rng.standard_normal(d)
        g = rng.standard_normal(d)
        A = rng.standard_normal((d, d))
        H = 0.5 * (A + A.T)
        # scale curvature into the step-size regime; an eigenvalue with
        # |1 - eta*lam| well above 1 amplifies round-off exponentially in t
        # in simulation and closed form alike, swamping the comparison
        H /= max(1.0, float(np.linalg.norm(H, 2)))
        stream = [rng.standard_normal(d) for _ in range(t)]

        quad = objectives.QuadraticObjective(w0, g, H)
        # the replayed sampler and the zero noise draw nothing: no generator
        config = SgdConfig(eta=eta, iterations=t, noise_scale=0.0, record_every=t)
        record = projected_trials(1, lambda _: (w0, None, quad, RecordedPerturbations(quad, stream)), config)[0]

        grad_cf, disp_cf = coupling_closed_form(g, H, stream, eta, t)
        worst = max(worst, float(np.max(np.abs(quad.gradient(record.final_point) - grad_cf))))
        worst = max(worst, float(np.max(np.abs((record.final_point - w0) - disp_cf))))
    return worst


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def to_line(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: value={self.value:.3e} tol={self.tolerance:.1e} {self.detail}".rstrip()


def run_checks(d=4, seed=0):
    """Invariant battery behind the ``verify`` command.

    Covers derivative correctness, closed-form multipliers, manifold
    geometry bounds, estimator unbiasedness (exhaustive over the sign
    sources), the d=2 minima census, and the quadratic coupling closed
    form.  ``d`` scales the randomized checks; the exhaustive and census
    checks run at their fixed small dimensions.
    """
    if d < 2:
        raise ValueError("d must be >= 2")
    rng = np.random.default_rng(seed)
    results = []

    basis = tensor4.OrthoBasis.random(d, rng)
    problems = [
        objectives.maxeig_objective(basis=basis),
        objectives.reconstruction_objective(basis=basis),
        objectives.correlation_objective(basis=basis, halved=True),
    ]
    for problem in problems:
        chi_err, m_err = derivative_check(problem, 5, rng)
        err = max(chi_err, m_err)
        results.append(CheckResult(f"derivatives-{problem.name}", err <= 1e-5, err, 1e-5,
                                   f"chi={chi_err:.2e} hessian={m_err:.2e}"))

    # closed forms live in the coordinate frame of the component basis
    to_coords = basis.vectors
    err = multiplier_check(problems[0],
                           lambda w: np.array([objectives.maxeig_multiplier_coords(to_coords @ w)]), 20, rng)
    results.append(CheckResult("multipliers-maxeig", err <= 1e-8, err, 1e-8))
    err = multiplier_check(problems[2],
                           lambda w: objectives.correlation_multipliers_coords(w.reshape(d, d) @ to_coords.T),
                           20, rng)
    results.append(CheckResult("multipliers-correlation", err <= 1e-8, err, 1e-8))

    geo = geometry_check(manifold.SphereProduct(min(d, 3), d), 500, (1e-1, 1e-2, 1e-3), rng)
    results.append(CheckResult("geometry-bounds", geo["total_violations"] == 0,
                               float(geo["total_violations"]), 0.0,
                               f"worst margin={max(geo['margins'].values()):.2e}"))

    err = pairing_expectation_check(3, 5, rng)
    results.append(CheckResult("pairing-expectation", err <= 1e-12, err, 1e-12))

    err = ica_unbiasedness_check(2, 5, rng)
    results.append(CheckResult("ica-gradient-unbiased", err <= 1e-10, err, 1e-10))

    err = simple_sampler_check(3, 5, rng)
    results.append(CheckResult("simple-sampler-unbiased", err <= 1e-12, err, 1e-12))

    census_basis = tensor4.OrthoBasis.standard(2)
    census = objectives.correlation_objective(basis=census_basis, halved=True)
    config = SgdConfig(eta=0.05, iterations=1200, noise_scale=0.5, seed=seed, record_every=1200)
    catalog = enumerate_minima(census, 60, config)
    matcher = SignedPermutationMatcher(census_basis)
    match_ok = all(matcher.nearest(e.point)[1] <= 1e-4 for e in catalog.entries)
    eig_ok = all(e.min_eig >= 1.0 for e in catalog.entries)
    results.append(CheckResult("minima-census-d2", len(catalog) == 8 and match_ok and eig_ok,
                               float(len(catalog)), 8.0,
                               f"matched={match_ok} eig_ok={eig_ok}"))

    err = coupling_check(3, d, 200, 0.01, seed)
    results.append(CheckResult("coupling-closed-form", err <= 1e-10, err, 1e-10))

    return results
