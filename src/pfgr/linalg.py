"""Dense exact linear algebra over a field from pfgr.fields.

Matrices are lists of lists of field elements.  rref and rank are the slow,
obviously-correct path for any field; pfgr.modq is the vectorized kernel over
F_q, and the tests check it against them entry for entry (their kernels and
solutions, built on rref, live with the test oracles).  In the package only
pfgr.mf reads them, as its fallback over Q; every geometry verdict goes
through pfgr.modq.
"""


def mat_copy(rows):
    return [list(r) for r in rows]


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
