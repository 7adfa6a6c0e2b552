"""KKT certificates for both PAVA routes, read off the returned minimizers.

Route 1 minimizes sum_k (t/2) a_k^2 + u_k a_k subject to a_k - a_{k+1} >= 1;
route 2 minimizes sum_i (m_i t/2)(b_i + x_i/t)^2 subject to
b_i - b_{i+1} >= (m_i + m_{i+1})/2. Both are strictly convex QPs, so a
feasible point is the minimizer iff the duals that stationarity forces,

    route 1: lambda_k = sum_{i<=k} (t a_i + u_i),
    route 2: lambda_i = sum_{j<=i} m_j (t b_j + x_j),

are >= 0 on every chain constraint, 0 on every slack one, and 0 for the
last prefix, which has no constraint. These are PAVA's duals (Best &
Chakravarti, Math. Programming 47, 1990); the certificate reads only the
returned values and shares no code with PAVA.

Each condition must hold to C * EPS * S, EPS = 2^-52, where S is the prefix
sum of |t a_i| + |u_i| (route 1) or of m_j (|t b_j| + |x_j|) (route 2). The
prefix sum of |t a_i + u_i| would not do: at one location t a + u rounds to
about 1e-16, and the ratio would read 1/EPS. A gap is slack when it exceeds
its margin by more than SLACK_TOL * (1 + margin).

The duals are summed with error-free transformations (Dekker's product,
Knuth's two-sum), so the certificate's own rounding is of order EPS^2 * S.
Plain np.cumsum would not do: on a one-block route-1 instance at nu = 50 725
its rounding alone reads 37.8 EPS * S, where the exact rational sum of the
same returned values reads 0.69.

Worst measured over the corpus below, in units of EPS * S: 8.0 on route 1
and 3.3 on route 2. Route 1's worst is a one-location draw (t = 3.20,
x = -0.0649, m = 1), not a near-tie: it has one coordinate and no
constraint. PAVA fits c = a + 1 there, so a carries the rounding of a value
near 1 while |a| = |x|/t = 0.02, and S sees only |a|. Route 1's ratio thus
grows like t / |x| at one location, and an instance with |x| far below t
exceeds any fixed C; the seeded draws here do not come near that.
"""

import numpy as np

from shelyap import flatten, random_instance, solve_gamma1, solve_gamma2, validate_instance

EPS = 2.0**-52
C = 32  # the worst measured ratio is 8.0 (route 1) and 3.3 (route 2)
SLACK_TOL = 1e-9


def _two_sum(a, b):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_product(a, b):
    def split(v):  # Veltkamp: halves of at most 26 bits
        c = 134217729.0 * v
        hi = c - (c - v)
        return hi, v - hi

    p = a * b
    (ah, al), (bh, bl) = split(a), split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _prefix_sums(hi, lo):
    """Prefix sums of hi + lo, to about EPS^2 of the sums of |hi|: np.cumsum's
    own rounding errors, recovered exactly by two-sum, are summed back in."""
    s = np.cumsum(hi)
    _, err = _two_sum(np.concatenate(([0.0], s[:-1])), hi)
    return s + np.cumsum(err + lo)


def _worst_ratio(lam, scale, gaps, margins):
    """The largest KKT residual, in units of EPS * S."""
    S = EPS * np.cumsum(scale)
    ratio = np.divide(lam, S, out=np.zeros_like(lam), where=S > 0)
    slack = gaps > SLACK_TOL * (1.0 + margins)
    return max((-ratio[:-1]).max(initial=0.0), np.abs(ratio[:-1][slack]).max(initial=0.0),
               abs(ratio[-1]))


def route1_ratio(inst, a):
    u, t = flatten(inst), inst.t
    p, p_err = _two_product(np.full(len(a), t), a)
    h, h_err = _two_sum(p, u)
    return _worst_ratio(_prefix_sums(h, p_err + h_err), np.abs(t * a) + np.abs(u),
                        a[:-1] - a[1:] - 1.0, np.ones(len(a) - 1))


def route2_ratio(inst, b):
    x, t = np.asarray(inst.x), inst.t
    m = np.asarray(inst.m, dtype=float)
    p, p_err = _two_product(np.full(len(b), t), b)
    h, h_err = _two_sum(p, x)
    q, q_err = _two_product(m, h)
    margins = (m[:-1] + m[1:]) / 2.0
    return _worst_ratio(_prefix_sums(q, q_err + m * (p_err + h_err)),
                        m * (np.abs(t * b) + np.abs(x)), b[:-1] - b[1:] - margins, margins)


def _corpus():
    rng = np.random.default_rng(0)
    yield from (random_instance(rng) for _ in range(3000))
    for n in (1000, 30_000):  # the benchmark shape
        for t in (2.0, 0.05):
            r = np.random.default_rng(0)
            yield validate_instance(t, np.sort(r.uniform(-n, n, n)), r.integers(1, 6, n))
    # gamma-high-nu's shape: 2..8 locations, multiplicities log-uniform in
    # [10^3, 4 10^4], halved until nu <= 10^5
    r = np.random.default_rng(1)
    for _ in range(60):
        n = int(r.integers(2, 9))
        t = float(r.uniform(0.1, 5.0))
        m = np.rint(1000 * 40 ** r.random(n)).astype(int)
        while m.sum() > 100_000:
            m = m // 2 + 1
        yield validate_instance(t, np.sort(r.uniform(-3.0, 3.0, n)), m)
    yield validate_instance(0.5, [-1.0, 0.3, 2.0], [40_000, 35_000, 25_000])  # nu = 10^5


def test_pava_routes_pass_their_kkt_certificates():
    worst = [0.0, 0.0]
    for inst in _corpus():
        worst[0] = max(worst[0], route1_ratio(inst, solve_gamma1(inst).values))
        worst[1] = max(worst[1], route2_ratio(inst, solve_gamma2(inst).values))
    assert worst[0] <= C and worst[1] <= C, worst


def test_certificate_rejects_a_perturbed_minimizer():
    # a fit scaled by 1 + 1e-9 stays feasible, but its last dual moves by
    # 1e-9 sum u (route 1) or 1e-9 sum m x (route 2), here 2.5e-9
    inst = validate_instance(2.0, [-1.0, 0.0, 0.5, 3.0], [2, 1, 3, 1])
    a, b = solve_gamma1(inst).values, solve_gamma2(inst).values
    assert route1_ratio(inst, a) <= C and route2_ratio(inst, b) <= C
    assert route1_ratio(inst, a * (1 + 1e-9)) > 1e3 * C
    assert route2_ratio(inst, b * (1 + 1e-9)) > 1e3 * C
