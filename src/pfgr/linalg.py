"""Dense exact linear algebra over a field from pfgr.fields.

Matrices are lists of lists of field elements.  These routines are the slow,
obviously-correct path for any field; pfgr.modq is the vectorized kernel over
F_q, and the tests check it against these entry for entry.  In the package
only pfgr.mf reads them, as its fallback over Q; every geometry verdict goes
through pfgr.modq.
"""


def mat_copy(rows):
    return [list(r) for r in rows]


def mat_vec(field, a, v):
    out = []
    for row in a:
        s = field.zero
        for c, x in zip(row, v):
            if not field.is_zero(c):
                s = field.add(s, field.mul(c, x))
        out.append(s)
    return out


def rref(field, rows):
    """Reduced row echelon form.  Returns (matrix, pivot_columns)."""
    m = mat_copy(rows)
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if not field.is_zero(m[i][c]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and not field.is_zero(m[i][c]):
                coef = m[i][c]
                m[i] = [field.sub(x, field.mul(coef, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rank(field, rows):
    if not rows:
        return 0
    return len(rref(field, rows)[1])


def right_kernel(field, rows):
    """Basis of {v : rows @ v = 0}."""
    if not rows:
        return []
    ncols = len(rows[0])
    m, pivots = rref(field, rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [field.zero] * ncols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = field.neg(m[r][f])
        basis.append(v)
    return basis


def solve(field, a, b):
    """One solution x of a @ x = b, or None if inconsistent."""
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    aug = [list(a[i]) + [b[i]] for i in range(nrows)]
    m, pivots = rref(field, aug)
    if ncols in pivots:
        return None
    x = [field.zero] * ncols
    for r, c in enumerate(pivots):
        x[c] = m[r][ncols]
    return x
