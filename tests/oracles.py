"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the library's own search routines:
grid scans are vectorized numpy sweeps, the infima use ternary search
on the unimodal max, and the recursions are rewritten from the same
formulas in a separate style.
"""

import math

import numpy as np

E = math.e


def min_unimodal(fn, lo, hi, iters=200):
    """Ternary search for the minimum of a unimodal function on [lo, hi]."""
    a, b = lo, hi
    for _ in range(iters):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if fn(m1) <= fn(m2):
            b = m2
        else:
            a = m1
    t = 0.5 * (a + b)
    return fn(t), t

def g_const_oracle(rho, theta, l, diam):
    n = math.ceil(rho) - 1

    def branch_max(r):
        up = r ** (rho - theta)
        down = r ** -(theta - l) * (1.0 + sum(r**s / math.factorial(s) for s in range(n - l + 1)))
        return max(up, down)

    val, _ = min_unimodal(branch_max, diam * 1e-9, diam)
    # the infimum may sit at the open right endpoint
    return min(val, branch_max(diam * (1 - 1e-12)))


def h_const_oracle(rho, theta, l, diam):
    n = math.ceil(rho) - 1
    q = math.ceil(theta) - 1

    def branch_max(r):
        up = r ** (rho - theta) + sum(
            r ** (i - theta) / math.factorial(i - l) for i in range(q + 1, n + 1)
        )
        down = r ** -(theta - l) * (1.0 + sum(r**s / math.factorial(s) for s in range(q - l + 1)))
        return max(up, down)

    val, _ = min_unimodal(branch_max, diam * 1e-9, diam)
    return min(val, branch_max(diam * (1 - 1e-12)))


def grid_sup(pred_vec, hi, coarse=10_000, fine=1_000_000):
    """Last feasible point before the first violation of a predicate.

    Two-stage vectorized sweep: a coarse grid of (0, hi] locates the
    first violated cell, then a dense grid inside that cell pins the
    boundary down to hi / (coarse * fine). The coarse resolution
    matches the library's defining scan so both sides agree on which
    violation counts as first.
    """
    ts = np.linspace(hi / coarse, hi, coarse)
    idx = np.flatnonzero(~pred_vec(ts))
    if idx.size == 0:
        return hi
    first = int(idx[0])
    lo = hi * first / coarse  # left edge of the violated cell
    up = float(ts[first])
    fs = np.linspace(lo, up, fine)
    fs = fs[fs > 0]
    bad = np.flatnonzero(~pred_vec(fs))
    if bad.size == 0:
        return up
    if bad[0] == 0:
        return 0.0
    return float(fs[bad[0] - 1])


def delta0_pointwise_oracle(eps, eps0, K, gamma, l):
    target = min(K, eps)

    def pred(ts):
        return K * ts ** (gamma - l) + eps0 * np.exp(ts) <= target

    return grid_sup(pred, 1.0)


def delta_star_oracle(A, r0, rho):
    n = math.ceil(rho) - 1
    half = (rho - n) / 2.0

    def pred(ts):
        two = 2.0 * ts
        root = np.sqrt(two)
        ed = np.exp(ts)
        r0e = r0 * ed
        ok = two < 1.0
        ok &= np.maximum(1 + root, 1 + two**half) < 2.0
        ok &= r0e <= A * (1.0 - ts ** (rho - n))
        ok &= (2.0**half - ts**half) * ts**half * A <= r0e
        ok &= 2.0 * root * (ts ** (rho - n) * A + r0e) <= r0e
        with np.errstate(divide="ignore", invalid="ignore"):
            geom = np.where(two < 1.0, (1.0 - two**n) / (1.0 - two), np.inf)
        ok &= root * (2.0**n * (ts ** (rho - n) * A + r0 * ts * ed) + 2.0 * r0e * geom) <= r0e
        return ok

    return grid_sup(pred, 1.0)


def delta0_single_high_oracle(eps, eps0, K, gamma, eta):
    """eta above k: both inequalities on a dense grid of (0, 1]."""
    k = math.ceil(gamma) - 1
    target = min(K, eps)

    def pred(ts):
        a = K * (2.0 * ts) ** (gamma - eta) <= target
        b = K * ts ** (gamma - k) + eps0 * np.exp(ts) <= target
        return a & b

    return grid_sup(pred, 1.0)


def delta0_single_low_oracle(eps, eps0, K, gamma, eta):
    """eta at or below k: the five-condition system on a dense grid."""
    k = math.ceil(gamma) - 1
    q = math.ceil(eta) - 1
    half = (gamma - k) / 2.0
    expo = (gamma - eta) / 2.0 + (q + 1 - eta) / 2.0
    cap = 1.0
    if eps0 > 0:
        cap = min(1.0, delta_star_oracle(K, eps0, gamma))
    if cap <= 0:
        return 0.0

    def pred(ts):
        two = 2.0 * ts
        root = np.sqrt(np.clip(two, 0, None))
        ed = np.exp(ts)
        ok = two < 1.0
        ok &= np.maximum(1 + two**half, 1 + root) < 2.0
        ok &= two**expo <= eps / (2.0 ** (k - q) * K)
        ok &= (1 + two**half) * (ts ** (gamma - k) * K + eps0 * ed) <= eps
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(two < 1.0, (1 + root) / (1.0 - two), np.inf)
        ok &= 2.0 ** (k - q) * (ts ** (gamma - k) * K + eps0 * ts * ed) + frac * eps0 * ed <= eps
        ok &= eps0 * ed <= (1.0 - ts) * eps
        return ok

    return grid_sup(pred, cap)


def e_sequence_oracle(rho, theta, A, r0, delta):
    """The recursion E_n, ..., E_{q+1}, written as a plain loop."""
    n = math.ceil(rho) - 1
    q = math.ceil(theta) - 1
    out = []
    head = 1.0 + (2.0 * delta) ** ((rho - n) / 2.0)
    inner = min(A, delta ** (rho - n) * A + r0 * math.exp(delta))
    cur = head * max((2.0 * delta) ** ((rho - n) / 2.0) * A, inner)
    out.append(cur)
    for _ in range(n - (q + 1)):
        inner = min(cur, delta * cur + r0 * math.exp(delta))
        cur = (1.0 + math.sqrt(2.0 * delta)) * max(math.sqrt(2.0 * delta) * cur, inner)
        out.append(cur)
    return out


def sandwich_constants_oracle(eps, K, gamma, eta):
    """The full constant chain, rebuilt on top of the grid oracles."""
    k = math.ceil(gamma) - 1
    eps_c = min(eps, K)
    theta_aux = 0.5 / (1.0 + E)
    e_in = theta_aux * eps_c
    e0_in = 0.5 * theta_aux * eps_c
    if eta > k:
        sp = delta0_single_high_oracle(e_in, e0_in, K, gamma, eta)
    else:
        sp = delta0_single_low_oracle(e_in, e0_in, K, gamma, eta)
    delta0 = min(sp, 1.0) / 2.0
    eps0 = (
        min(theta_aux, delta0**eta / (math.exp(delta0) * (1.0 + math.exp(delta0))))
        * eps_c
        / 2.0
    )
    return delta0, eps0, theta_aux


def sandwich_eps0_oracle(delta0, eps, K, eta):
    """The closed-form eps0 step of the chain, for a given radius."""
    eps_c = min(eps, K)
    theta_aux = 0.5 / (1.0 + E)
    return (
        min(theta_aux, delta0**eta / (math.exp(delta0) * (1.0 + math.exp(delta0))))
        * eps_c
        / 2.0
    )


def op_norm_oracle(flat_matrix):
    """Spectral norm via the eigenvalues of the Gram matrix."""
    m = np.asarray(flat_matrix, dtype=float)
    gram = m.T @ m
    return math.sqrt(max(0.0, float(np.max(np.linalg.eigvalsh(gram)))))


def lip_norm_oracle(sites, forms, eta):
    """Lip(eta) norm by an explicit loop over sites and ordered pairs.

    ``forms[i][l]`` is the coefficient array of the level-l form at site
    i. Returns (pointwise, pointwise_witness, holder, holder_witness);
    each witness is the first maximum in index order, and a Holder
    witness is None when its sup is 0.
    """
    q = math.ceil(eta) - 1
    sites = np.asarray(sites, dtype=float)
    n = len(sites)

    def norm(coeffs):
        return op_norm_oracle(np.reshape(coeffs, (-1, np.shape(coeffs)[-1])))

    pointwise, pointwise_witness, holder, holder_witness = [], [], [], []
    for l in range(q + 1):
        vals = [norm(forms[i][l]) for i in range(n)]
        pointwise.append(max(vals))
        pointwise_witness.append(vals.index(max(vals)))
        best, where = 0.0, None
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                step = sites[j] - sites[i]
                rem = np.array(forms[j][l], dtype=float)
                for s in range(q - l + 1):
                    term = np.asarray(forms[i][l + s], dtype=float)
                    for _ in range(s):
                        term = np.tensordot(step, term, axes=(0, 0))
                    rem = rem - term / math.factorial(s)
                gap = math.sqrt(float(np.dot(step, step)))
                quot = norm(rem) / gap ** (eta - l)
                if quot > best:
                    best, where = quot, (i, j)
        holder.append(best)
        holder_witness.append(where)
    return pointwise, pointwise_witness, holder, holder_witness


def cover_check_oracle(sites, centers, delta):
    """Plain double loop cover check."""
    for i, p in enumerate(sites):
        if not any(np.linalg.norm(p - sites[c]) <= delta for c in centers):
            return False, i
    return True, None


def is_cover_rows_oracle(sites, centers, delta):
    """One site at a time: an np.linalg.norm row against all centers."""
    if not centers:
        return False, 0
    center_pts = sites[list(centers)]
    for i in range(sites.shape[0]):
        if np.min(np.linalg.norm(center_pts - sites[i], axis=1)) > delta:
            return False, i
    return True, None


def greedy_cover_rows_oracle(sites, delta):
    """Farthest-point greedy from site 0, one np.linalg.norm row per center."""
    centers = [0]
    min_dist = np.linalg.norm(sites - sites[0], axis=1)
    while True:
        far = int(np.argmax(min_dist))
        if min_dist[far] <= delta:
            return centers
        centers.append(far)
        min_dist = np.minimum(min_dist, np.linalg.norm(sites - sites[far], axis=1))


def pair_distance(p, q):
    """Euclidean distance with the squares summed in coordinate order.

    The 1-D ``np.linalg.norm`` goes through BLAS ``dot``, whose rounding
    (fused multiply-add on some builds) can differ in the last ulp.
    """
    acc = 0.0
    for a, b in zip(p, q):
        acc += (b - a) * (b - a)
    return math.sqrt(acc)


def separation_oracle(sites, rel_tol):
    """First site pair (i, j > i) in index order closer than rel_tol times
    max(1, largest |coordinate|), one pair at a time; None if there is none."""
    tol = rel_tol * max(1.0, max(abs(float(x)) for p in sites for x in p))
    for i in range(len(sites)):
        for j in range(i + 1, len(sites)):
            if pair_distance(sites[i], sites[j]) < tol:
                return i, j
    return None


def greedy_packing_oracle(sites, delta):
    """Index-order greedy packing, one site pair at a time."""
    kept = []
    for i in range(len(sites)):
        if all(pair_distance(sites[i], sites[j]) > delta for j in kept):
            kept.append(i)
    return kept


def diameter_oracle(sites):
    best = 0.0
    n = len(sites)
    for i in range(n):
        for j in range(i + 1, n):
            best = max(best, pair_distance(sites[i], sites[j]))
    return best
