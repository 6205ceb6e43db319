"""Verification engine: numerical oracles and saddle-structure diagnostics.

Finite-difference derivative oracles, classification of feasible points
into the quantitative strict-saddle trichotomy (large tangent gradient /
negative tangent curvature / near a known local minimum), local-minima
enumeration by multi-start search, escape statistics from exact saddles,
and the exact closed form for SGD on a quadratic model driven by a known
perturbation stream.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import ica, manifold, objectives, tensor4
from .sgd import (
    RecordedPerturbations,
    SgdConfig,
    noisy_sgd,
    projected_trials,
    row_norms,
    trial_rng,
    unit_sphere_noise,
)

__all__ = [
    "fd_gradient",
    "fd_hessian",
    "SaddleReport",
    "classify_point",
    "AxisMatcher",
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

def fd_gradient(f, w, h=None):
    """Central-difference gradient; default step 1e-5 * max(1, ||w||)."""
    w = np.asarray(w, dtype=float)
    if h is None:
        h = 1e-5 * max(1.0, float(np.linalg.norm(w)))
    if h <= 0:
        raise ValueError("h must be positive")
    g = np.empty(w.size)
    for i in range(w.size):
        e = np.zeros(w.size)
        e[i] = h
        g[i] = (f(w + e) - f(w - e)) / (2.0 * h)
    if not np.all(np.isfinite(g)):
        raise FloatingPointError("non-finite values in finite-difference gradient")
    return g


def fd_hessian(f, w, h=None):
    """Central second differences, symmetrized.

    Default step 1e-4 * max(1, ||w||): second differences divide round-off
    by h^2, so the optimum sits near eps^{1/4}, coarser than the gradient
    step.
    """
    w = np.asarray(w, dtype=float)
    if h is None:
        h = 1e-4 * max(1.0, float(np.linalg.norm(w)))
    if h <= 0:
        raise ValueError("h must be positive")
    n = w.size
    H = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            val = (f(w + ei + ej) - f(w + ei - ej) - f(w - ei + ej) + f(w - ei - ej)) / (4.0 * h * h)
            H[i, j] = val
            H[j, i] = val
    if not np.all(np.isfinite(H)):
        raise FloatingPointError("non-finite values in finite-difference Hessian")
    return 0.5 * (H + H.T)


class AxisMatcher:
    """Nearest candidate among the signed components {+-a_i} (one sphere)."""

    def __init__(self, basis):
        self.basis = basis

    def nearest(self, u):
        u = np.asarray(u, dtype=float)
        coeff = self.basis.vectors @ u
        i = int(np.argmax(np.abs(coeff)))
        cand = math.copysign(1.0, coeff[i]) * self.basis.vectors[i]
        return cand, float(np.linalg.norm(u - cand))


class SignedPermutationMatcher:
    """Nearest signed permutation of the basis rows, in Frobenius distance.

    Minimizing sum_i ||u_i - kappa_i a_{pi(i)}||^2 over signs kappa and
    permutations pi is the assignment problem maximizing
    sum_i |<u_i, a_{pi(i)}>|; solved exactly by the Hungarian method.
    """

    def __init__(self, basis):
        self.basis = basis

    def nearest(self, w):
        w = np.asarray(w, dtype=float)
        d = self.basis.d
        U = w.reshape(d, d)
        corr = U @ self.basis.vectors.T
        rows, cols = linear_sum_assignment(-np.abs(corr))
        V = np.empty_like(U)
        for i, j in zip(rows, cols):
            V[i] = math.copysign(1.0, corr[i, j]) * self.basis.vectors[j]
        return V.reshape(-1), float(np.linalg.norm(w - V.reshape(-1)))


@dataclass
class SaddleReport:
    """Classification of one feasible point with its numeric evidence."""

    point: np.ndarray
    classification: str
    chi_norm: float
    min_eig: float | None = None
    witness: np.ndarray | None = None
    matched_minimum: np.ndarray | None = None
    match_distance: float | None = None
    neighborhood_min_eig: float | None = None
    params: manifold.SaddleParams | None = None


def classify_point(problem, w, params, matcher=None, rng=None):
    """Sort a feasible point into the strict-saddle trichotomy.

    Branch order: ||chi(w)|| >= epsilon, then minimum tangent eigenvalue
    <= -gamma, then a catalogued minimum within delta.  The third branch
    additionally samples the 2*delta neighborhood of the matched minimum
    at four points and requires every probed tangent Hessian to stay
    >= alpha; a probe below alpha vetoes the match (the sampling can
    certify violation but only give evidence of satisfaction).
    """
    w = np.asarray(w, dtype=float)
    chi = manifold.tangent_gradient(problem, w)
    chi_norm = float(np.linalg.norm(chi))
    if chi_norm >= params.epsilon:
        return SaddleReport(w, "LargeGradient", chi_norm, params=params)

    eig, witness = manifold.min_tangent_eig(problem, w)
    if eig <= -params.gamma:
        return SaddleReport(w, "NegativeCurvature", chi_norm, min_eig=eig, witness=witness, params=params)

    if matcher is not None:
        cand, dist = matcher.nearest(w)
        if cand is not None and dist <= params.delta:
            nbhd = _neighborhood_min_eig(problem, cand, 2.0 * params.delta, rng)
            nbhd = min(nbhd, eig)
            if nbhd >= params.alpha:
                return SaddleReport(
                    w,
                    "NearLocalMinimum",
                    chi_norm,
                    min_eig=eig,
                    witness=witness,
                    matched_minimum=cand,
                    match_distance=dist,
                    neighborhood_min_eig=nbhd,
                    params=params,
                )

    return SaddleReport(w, "Unclassified", chi_norm, min_eig=eig, witness=witness, params=params)


def _neighborhood_min_eig(problem, center, radius, rng):
    """Min tangent eigenvalue over sampled feasible points near a minimum."""
    if rng is None:
        rng = np.random.default_rng(0)
    worst = manifold.min_tangent_eig(problem, center)[0]
    for _ in range(4):
        step = radius * rng.random() * unit_sphere_noise(center.size, rng)
        try:
            point = problem.constraints.project(center + step)
        except ValueError:
            continue
        if np.linalg.norm(point - center) > radius:
            continue
        worst = min(worst, manifold.min_tangent_eig(problem, point)[0])
    return float(worst)


@dataclass
class CatalogEntry:
    point: np.ndarray
    min_eig: float
    hits: int = 1


@dataclass
class MinimaCatalog:
    """Distinct local minima found by multi-start search."""

    dedup: float = 1e-3
    entries: list = field(default_factory=list)

    def add(self, point, min_eig):
        """Insert or merge a minimum; returns the matching entry."""
        for entry in self.entries:
            if np.linalg.norm(point - entry.point) <= self.dedup:
                entry.hits += 1
                return entry
        entry = CatalogEntry(np.array(point, dtype=float), float(min_eig))
        self.entries.append(entry)
        return entry

    def __len__(self):
        return len(self.entries)

    def min_pairwise_distance(self):
        if len(self.entries) < 2:
            return np.inf
        best = np.inf
        for i in range(len(self.entries)):
            for j in range(i + 1, len(self.entries)):
                best = min(best, float(np.linalg.norm(self.entries[i].point - self.entries[j].point)))
        return best

    def sorted_points(self):
        """Entries sorted lexicographically, for order-independent comparison."""
        return sorted(self.entries, key=lambda e: tuple(np.round(e.point, 9)))

    def to_csv(self, path):
        with open(path, "w") as fh:
            dim = self.entries[0].point.size if self.entries else 0
            cols = ",".join(f"w{k}" for k in range(dim))
            fh.write(f"min_eig,hits,{cols}\n" if dim else "min_eig,hits\n")
            for e in self.sorted_points():
                coords = ",".join(repr(float(v)) for v in e.point)
                fh.write(f"{e.min_eig!r},{e.hits},{coords}\n")


def polish(problem, w):
    """Noise-free projected gradient descent to sharpen endpoints.

    ``w`` is one point or a (K, n) stack, given up to 500 steps of size
    0.02.  Before every step each row checks ||chi|| <= 1e-11 and stops
    once it holds, so every row ends where it would when polished alone.
    """
    W = np.array(w, dtype=float)
    rows = W.reshape(-1, W.shape[-1])
    active = np.arange(rows.shape[0])
    for _ in range(500):
        V = rows[active]
        moving = ~(row_norms(manifold.tangent_gradient(problem, V)) <= 1e-11)
        active, V = active[moving], V[moving]
        if not active.size:
            break
        rows[active] = problem.constraints.project(V - 0.02 * problem.gradient(V))
    return W


def enumerate_minima(problem, n_starts, config):
    """Multi-start projected noisy SGD, polish, and catalog.

    Start k uses the RNG substream ``trial_rng(config.seed, k)``; the
    starts run as one stack of trials with exact gradients.  After the
    noisy phase the endpoints are polished by exact projected descent and
    catalogued in start order.  An endpoint self-certifies by second
    order: ||chi|| <= 1e-8 and positive tangent curvature.
    """
    catalog = MinimaCatalog()

    def start(k):
        rng = trial_rng(config.seed, k)
        return problem.random_feasible(rng), rng

    records = projected_trials(problem, None, n_starts, start, config)
    ends = [record.final_point for record in records if not record.diverged]
    if not ends:
        return catalog
    for w in polish(problem, np.array(ends)):
        if np.linalg.norm(manifold.tangent_gradient(problem, w)) > 1e-8:
            continue
        eig = manifold.min_tangent_eig(problem, w)[0]
        if eig <= 0:
            continue
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
    step budget; it then stops early, so ``median_steps`` is the median
    first-passage time over escaping trials.  Default threshold is
    0.1 * |f(saddle)| floored at 1e-3.  Trial k uses the substream
    ``trial_rng(config.seed, k)``; the trials run as one stack, with exact
    gradients, through :func:`sgd.projected_trials`, so its checks apply:
    the saddle must be feasible to 1e-10 (ValueError otherwise), and a
    recorded iterate off the feasible set or a perturbation over the
    oracle bound raises RuntimeError.  Escape and f decrease are read from f at each trial's
    final point.
    """
    w_star = np.asarray(saddle_point, dtype=float)
    f0 = problem.value(w_star)
    if threshold is None:
        threshold = max(0.1 * abs(f0), 1e-3)
    target = f0 - threshold

    records = projected_trials(problem, None, n_trials, lambda k: (w_star, trial_rng(config.seed, k)),
                               config, stop=lambda W: problem.value(W) <= target)
    f_final = problem.value(np.array([r.final_point for r in records]))
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

    Returns a dict with the violation count and the worst signed margin
    (lhs - rhs, nonpositive when the bound holds) per inequality.
    """
    n = constraints.n
    margins = {k: -np.inf for k in ("normal_quadratic", "normal_by_tangent", "tangent_drift", "normal_drift", "projection_step")}
    violations = {k: 0 for k in margins}

    def note(key, lhs, rhs):
        margins[key] = max(margins[key], lhs - rhs)
        if lhs > rhs + 1e-12:
            violations[key] += 1

    for _ in range(n_pairs):
        w0 = constraints.random_point(rng)
        w = constraints.random_point(rng)
        delta = w - w0
        dist = np.linalg.norm(delta)
        normal_part = np.linalg.norm(constraints.normal_project(w0, delta))
        note("normal_quadratic", normal_part, 0.5 * dist**2)
        if dist < 1.0:
            tangent_part = np.linalg.norm(constraints.tangent_project(w0, delta))
            note("normal_by_tangent", normal_part, tangent_part**2)

        v = constraints.tangent_project(w, rng.standard_normal(n))
        nrm = np.linalg.norm(v)
        if nrm > 1e-12:
            v /= nrm
            note("tangent_drift", np.linalg.norm(constraints.normal_project(w0, v)), dist)

        u = constraints.normal_project(w, rng.standard_normal(n))
        nrm = np.linalg.norm(u)
        if nrm > 1e-12:
            u /= nrm
            note("normal_drift", np.linalg.norm(constraints.tangent_project(w0, u)), dist)

        direction = unit_sphere_noise(n, rng)
        for eta in etas:
            stepped = constraints.project(w0 + eta * direction)
            surrogate = w0 + eta * constraints.tangent_project(w0, direction)
            note("projection_step", np.linalg.norm(stepped - surrogate), 4.0 * eta**2)

    return {"violations": violations, "margins": margins, "total_violations": int(sum(violations.values()))}


def exhaustive_sign_vectors(d):
    """All 2^d sign vectors in {-1,+1}^d, as rows."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=d)))


def pairing_expectation_check(d, n_forms, rng):
    """Exact expectation identity behind the ICA estimator.

    Over the 2^d equiprobable sign sources x, the empirical mean of
    (1/2)(Z - y^{(4)}) applied as a form must equal the form of the
    orthogonal tensor built from the mixing rows, exactly up to
    round-off.
    """
    model = ica.IcaModel.random(d, rng)
    basis = model.component_basis()
    T = tensor4.make_orthogonal_tensor(basis)
    signs = exhaustive_sign_vectors(d)
    ys = signs @ model.A.T
    worst = 0.0
    for _ in range(n_forms):
        u = rng.standard_normal(d)
        v = rng.standard_normal(d)
        mean = np.mean([ica.z_minus_y4_form(y, u, v) for y in ys])
        want = float(u @ tensor4.form_pair_vector(T, u, v))
        worst = max(worst, abs(mean - want))
    return worst


def ica_unbiasedness_check(d, n_points, rng, gradient_fn=None):
    """Exhaustive mean of the ICA stochastic gradient vs the analytic one."""
    if gradient_fn is None:
        gradient_fn = ica.ica_stochastic_gradient
    model = ica.IcaModel.random(d, rng)
    problem = objectives.correlation_objective(basis=model.component_basis(), halved=True)
    signs = exhaustive_sign_vectors(d)
    ys = signs @ model.A.T
    worst = 0.0
    for _ in range(n_points):
        w = problem.random_feasible(rng)
        mean = np.mean([gradient_fn(w, y) for y in ys], axis=0)
        worst = max(worst, float(np.max(np.abs(mean - problem.gradient(w)))))
    return worst


def simple_sampler_check(d, n_points, rng):
    """Exact mean of the atomic sampler gradient vs the analytic one."""
    basis = tensor4.OrthoBasis.random(d, rng)
    problem = objectives.correlation_objective(basis=basis, halved=True)
    atoms = d**0.25 * basis.vectors
    worst = 0.0
    for _ in range(n_points):
        w = problem.random_feasible(rng)
        mean = np.mean([ica.simple_correlation_gradient(w.reshape(d, d), x).reshape(-1) for x in atoms], axis=0)
        worst = max(worst, float(np.max(np.abs(mean - problem.gradient(w)))))
    return worst


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
        config = SgdConfig(eta=eta, iterations=t, noise_scale=0.0, seed=0, record_every=t)
        record = noisy_sgd(quad, RecordedPerturbations(stream), w0, config)

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

    geo = geometry_check(manifold.SphereProduct.spheres(min(d, 3), d), 500, (1e-1, 1e-2, 1e-3), rng)
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
