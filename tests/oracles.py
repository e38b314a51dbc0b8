"""Independent brute-force evaluators used as test oracles.

Nothing here shares code with the package: Kronecker products, traces, and
eigenvalues are computed by explicit loops or by a different algorithm, so
agreement with the library is meaningful.
"""

import itertools

import numpy as np

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def naive_kron(a, b):
    """Kronecker product by explicit index arithmetic."""
    na, nb = a.shape[0], b.shape[0]
    out = np.zeros((na * nb, na * nb), dtype=complex)
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k, j * nb + l] = a[i, j] * b[k, l]
    return out


def naive_trace_product(a, b):
    """Tr[a b] by explicit double loop."""
    total = 0.0 + 0.0j
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            total += a[i, j] * b[j, i]
    return total


def naive_cond_probs(w, ops_a, ops_b):
    """p(a,b|x,y) tables evaluated elementwise, no shared code with the library.

    ``ops_a``/``ops_b`` map (x, a) -> 4x4 complex matrices; ``w`` is the 16x16
    process matrix.
    """
    table = np.zeros((2, 2, 2, 2))
    for a in range(2):
        for b in range(2):
            for x in range(2):
                for y in range(2):
                    value = naive_trace_product(naive_kron(ops_a[(x, a)], ops_b[(y, b)]), w)
                    assert abs(value.imag) < 1e-12
                    table[a, b, x, y] = value.real
    return table


def gyni_ops():
    """The strategy's Choi operators as raw 4x4 matrices, built from scratch."""
    phi = np.zeros((4, 1), dtype=complex)
    phi[0] = 1.0
    phi[3] = 1.0
    proj = [np.zeros((2, 2), dtype=complex) for _ in range(2)]
    proj[0][0, 0] = 1.0
    proj[1][1, 1] = 1.0
    send0 = proj[0]
    return {
        (0, 0): np.zeros((4, 4), dtype=complex),
        (0, 1): phi @ phi.conj().T,
        (1, 0): naive_kron(proj[0], send0),
        (1, 1): naive_kron(proj[1], send0),
    }


def word_matrix(word):
    mat = PAULI[word[0]]
    for ch in word[1:]:
        mat = naive_kron(mat, PAULI[ch])
    return mat


def ocb_matrix():
    return (word_matrix("IIII") + (word_matrix("ZZZI") + word_matrix("ZIXX")) / np.sqrt(2)) / 4


_WORD_MATRICES = {}


def block_matrix(words, coeffs):
    """I/4 + sum_k coeffs[k] word_k on the four qubits (16 x 16)."""
    out = np.eye(16, dtype=complex) / 4
    for word, value in zip(words, coeffs):
        if value != 0.0:
            if word not in _WORD_MATRICES:
                _WORD_MATRICES[word] = word_matrix(word)
            out = out + value * _WORD_MATRICES[word]
    return out


def charpoly_min_eig(matrix):
    """Smallest eigenvalue via Faddeev-LeVerrier characteristic polynomial.

    Coefficients come from Newton's identities on power-sum traces; roots from
    the companion matrix.  A different route than a Hermitian eigensolver.
    """
    m = np.asarray(matrix, dtype=complex)
    n = m.shape[0]
    power = np.eye(n, dtype=complex)
    p_sums = []
    for _ in range(n):
        power = power @ m
        p_sums.append(np.trace(power))
    coeffs = [1.0 + 0.0j]
    for k in range(1, n + 1):
        acc = p_sums[k - 1]
        for i in range(1, k):
            acc += coeffs[i] * p_sums[k - 1 - i]
        coeffs.append(-acc / k)
    roots = np.roots(np.array(coeffs))
    return float(np.min(roots.real))


def shannon_bits(p):
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 1e-15]
    return float(-(p * np.log2(p)).sum())


def bisect_interval(block_at, t0, tol, bracket=0.2501, steps=31):
    """Feasible interval of one coordinate by bisection on the smallest
    eigenvalue: ``block_at(t)`` is the block with the coordinate set to t, and
    each endpoint is the last point found with smallest eigenvalue >= -tol.

    Any feasible block coefficient obeys |c| <= 1/4, so ``bracket`` is on the
    infeasible side; 0.51 / 2^31 < 5e-10 bounds the endpoint error.
    """
    ends = []
    for sign in (-1.0, 1.0):
        lo, hi = t0, sign * bracket
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if np.linalg.eigvalsh(block_at(mid))[0] >= -tol:
                lo = mid
            else:
                hi = mid
        ends.append(lo)
    return ends[0], ends[1]


def slack_max(block, word, lo, hi, points=2001, tol=1e-13):
    """Maximum over s in [lo, hi] of the smallest eigenvalue of block + s word.

    A dense grid (one batched eigvalsh) picks the best grid point; a
    golden-section search over its two neighbouring cells, valid because the
    smallest eigenvalue is concave in s, polishes it.  Returns (s, value).
    """
    def smallest(s):
        return float(np.linalg.eigvalsh(block + s * word)[0])

    grid = np.linspace(lo, hi, points)
    values = np.linalg.eigvalsh(block[None] + grid[:, None, None] * word[None])[:, 0]
    k = int(np.argmax(values))
    a, b = grid[max(k - 1, 0)], grid[min(k + 1, points - 1)]
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = b - ratio * (b - a), a + ratio * (b - a)
    f1, f2 = smallest(x1), smallest(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + ratio * (b - a)
            f2 = smallest(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - ratio * (b - a)
            f1 = smallest(x1)
    candidates = [(float(grid[k]), float(values[k])), (x1, f1), (x2, f2)]
    return max(candidates, key=lambda item: item[1])


def trace_replace(matrix, dims, traced):
    """(I_X / d_X) (x) Tr_X of ``matrix`` on factors of dimensions ``dims``,
    X being the factor positions ``traced``, entry by entry.  An entry whose
    row and column indices differ on a traced factor is 0; any other is the
    sum over every common value of the traced indices, divided by each
    traced dimension.
    """
    matrix = np.asarray(matrix, dtype=complex)
    side = matrix.shape[0]

    def digits(flat):
        out = []
        for d in reversed(dims):
            out.append(flat % d)
            flat //= d
        return out[::-1]

    def flat_index(digs):
        flat = 0
        for d, k in zip(dims, digs):
            flat = flat * d + k
        return flat

    traced_values = list(itertools.product(*(range(dims[pos]) for pos in traced)))
    out = np.zeros((side, side), dtype=complex)
    for row in range(side):
        r = digits(row)
        for col in range(side):
            c = digits(col)
            if any(r[pos] != c[pos] for pos in traced):
                continue
            total = 0.0 + 0.0j
            for vals in traced_values:
                rr, cc = list(r), list(c)
                for pos, k in zip(traced, vals):
                    rr[pos] = cc[pos] = k
                total += matrix[flat_index(rr), flat_index(cc)]
            for pos in traced:
                total /= dims[pos]
            out[row, col] = total
    return out
