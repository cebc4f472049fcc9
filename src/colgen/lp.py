"""Sparse-column two-phase revised primal simplex for small and mid-size LPs.

Minimization only, variables bounded below by zero.  Rows may be >=, <= or =.
Internally every row is converted to an equality with a nonnegative right-hand
side; reported duals are mapped back to the caller's row senses, so duals of
>= rows come out nonnegative and duals of <= rows nonpositive (up to
tolerance).  Columns are stored by their nonzeros and priced from them, and
the ratio test runs over the entering direction's nonzeros only.

One object owns the basis inverse B^-1, and the simplex reaches it only
through five operations, which are all that another storage of B^-1 must
provide: `solve(v)` (B^-1 v), `duals(c_B)` (c_B B^-1), `ftran(rows, vals)`
(B^-1 a for a column a given by its nonzeros), `pivot(nz, d_nz, leave,
d_leave)` (the basis change for an entering direction, returning the new pivot
row's nonzeros for the caller's dual update) and `refactor(basis, ptr, rows,
vals)` (B^-1 rebuilt from the basis columns, read from the model's column
store).  The storage keeps each column of B^-1 that has one nonzero as its
(position, value) pair, and the others in a column-major panel of m + 1
entries per column; no m x m array is built.  Just after a refactorization
the panel holds only the columns of the core's rows (below), about 100 of
the 5,100 on the master of the paper's largest `ga` shape, and a pivot moves
at most one more column into it.  FTRAN is one gather of panel columns
(every unit column points at one shared zero column), one sum and one scatter
of the unit values.  A pivot's rank-1 update touches only the panel entries
in the direction's nonzero rows and the pivot row's nonzero columns.  A
refactorization eliminates the basis columns with a single nonzero (surplus,
artificial, single-row structural) on their rows, then the core entries alone
in their row and column, inverts only the square rest of the core, and builds
the new panel from those.  Every sum over the panel and the core inverse
itself (Gauss-Jordan elimination) run in numpy's element-wise loops, not in
BLAS or LAPACK, whose sums change order with their thread count; so the pivot
path is the same at any thread count.  Apart from the identity, B^-1 comes
only from a refactorization, a cold start's included (below).

The basic values and the duals are carried across pivots by the same step and
recomputed exactly at each refactorization, every few pivots.  Columns can be
appended after a solve: that leaves the basis, its inverse and its duals
valid, so a re-solve resumes from all three, which keeps re-solves cheap in
column-generation loops.  A warm solve recomputes the reduced costs, and the
basic values under the same perturbed right-hand side.  It does not check
again that the basis is feasible under the true right-hand side: a perturbed
solve checked that, at the tighter FEAS_TOL, before it exited, and a solve
that ended on the unperturbed cold retry below checks it at its exit instead.
A solve's returned values and duals are computed afresh from the inverse, not
carried.

A cold solve crash-starts phase 1 in two steps.  First, every row whose
scaled surplus column has coefficient +1 (a <= row with a positive rhs, a >=
row with a negative one) starts with that surplus basic instead of its
artificial.  Second, each row still held by its artificial takes the
lowest-index structural column with a positive entry on it and no entry on
any other artificial-held row (Bixby, "Implementing the simplex method: the
initial basis", ORSA J. Computing 4(3), 1992).  Such a basis is triangular,
so its refactorization inverts nothing; it is used only if its basic values
are feasible, and otherwise phase 1 starts from the first step's basis, which
is the identity.  In a decomposition master this puts each block's initial
column on its convexity row, where phase 1 would otherwise pivot it in one
row at a time.  Phase 2 runs on a right-hand side raised by a small, bounded
random amount per row (Koberstein, "The dual simplex method, techniques for a
fast and stable implementation", PhD thesis, Paderborn 2005, section 6),
which breaks the ties that make degenerate masters stall.  The perturbation
is removed at the end: the final basis is accepted only if its basic values
under the true right-hand side are feasible, which makes it optimal, since
reduced costs do not depend on the right-hand side.  Otherwise the solve
starts again from a cold phase 1 and runs phase 2 on the true right-hand
side.  The perturbation is drawn once per model, from a generator seeded by
its row count, so solves are deterministic.

Models are independent: two LpModel instances share no state and may be
solved concurrently from different threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-7
PIVOT_TOL = 1e-9
RC_TOL = 1e-9
# phase 2 raises row i's (nonnegative, scaled) rhs b_i by
# PERTURB_SCALE * (1 + b_i) * r_i, with r_i drawn uniformly from [0.5, 1)
PERTURB_SCALE = 1e-6


class RowSense(enum.Enum):
    GE = ">="
    LE = "<="
    EQ = "="


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LpError(Exception):
    pass


class LpStructureError(LpError):
    """Bad model input: unknown row, non-finite data, wrong shapes."""


class LpNumericalError(LpError):
    """Simplex broke down and the Bland fallback did not recover."""


class _Breakdown(Exception):
    # internal signal, converted to LpNumericalError after the retry
    pass


@dataclass
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective: float | None
    duals: np.ndarray | None
    iterations: int


def _grown(arr: np.ndarray, need: int) -> np.ndarray:
    """`arr` copied into a zero-padded array of at least `need` entries."""
    out = np.zeros(max(16, 2 * need), dtype=arr.dtype)
    out[: len(arr)] = arr
    return out


# entries of C^-1 that a refactorization gathers at a time (8 MB) to sum the
# unit rows' block of B^-1
_OFF_BLOCK = 1 << 20


def _inverse(a: np.ndarray) -> np.ndarray:
    """The inverse of the square matrix `a`, from numpy's element-wise loops.

    Gauss-Jordan elimination with partial pivoting, without row swaps:
    column j pivots on the free row p of largest magnitude, and then holds
    the inverse's column p (Press et al., "Numerical Recipes", section 2.1).
    Each step updates only the rows where column j is nonzero, so a sparse
    core costs far less than k^3.  No BLAS or LAPACK call is made, so the
    result does not depend on their thread count.  Raises LinAlgError when
    the matrix is not square or a pivot is zero.
    """
    k = len(a)
    if a.shape != (k, k):
        raise np.linalg.LinAlgError(f"a {a.shape} core is not square")
    w = a.copy()
    free = np.ones(k)  # 1.0 on the rows that have not pivoted yet
    piv = np.empty(k, dtype=np.int64)
    for j in range(k):
        f = w[:, j].copy()
        p = int((np.abs(f) * free).argmax())
        if f[p] == 0.0 or not free[p]:
            raise np.linalg.LinAlgError("singular matrix")
        free[p] = 0.0
        piv[j] = p
        w[p, j] = 1.0
        w[p] /= f[p]
        f[p] = 0.0
        nz = f.nonzero()[0]
        w[nz, j] = 0.0
        w[nz] -= f.take(nz)[:, None] * w[p]
    # row p_j of w is row j of the inverse, with its column j at column p_j
    out = np.empty((k, k))
    out[:, piv] = w[piv]
    return out


class _PanelInverse:
    """B^-1 of a basis, as its unit columns plus a column-major panel.

    Column i of B^-1, the one that multiplies a column's entry on row i, is
    either a unit column, with its one nonzero `_val[i]` at basis position
    `_pos[i]`, or a panel column, kept in row `_slot[i]` of the panel.  The
    panel is a (slots, m + 1) array: row s holds column `_col[s]` of B^-1,
    and its last entry is a dummy position that stays zero.  Slot 0 is all
    zeros, and every unit column points at it; a panel column has `_pos` m
    (the dummy) and `_val` 0.  So a product over any columns of B^-1 is one
    gather of panel rows, one sum and one scatter of the unit values, with no
    branch on the column's kind.  After a refactorization the panel holds
    the columns of the core's rows; a pivot moves the unit column with an
    entry in its leaving row, if any, into the next slot.  No m x m array is
    built, and every sum runs in numpy's own loops, so no result depends on
    the BLAS thread count.  See the module docstring for the five
    operations.
    """

    def __init__(self, m: int):
        """The identity."""
        self._m = m
        self._pos = np.arange(m)
        self._val = np.ones(m)
        self._unit_at = np.arange(m)  # position -> its unit column, or -1
        self._slot = np.zeros(m, dtype=np.int64)
        self._set_panel(np.zeros((16, m + 1)), np.zeros(16, dtype=np.int64))
        self._used = 1  # slots in use, the zero slot included

    @property
    def dense(self) -> np.ndarray:
        """B^-1 as an m x m array, built afresh; for tests."""
        m, used = self._m, self._used
        out = np.zeros((m, m))
        out[:, self._col[1:used]] = self._panel[1:used, :m].T
        unit = self._slot == 0
        out[self._pos[unit], np.flatnonzero(unit)] = self._val[unit]
        return out

    def solve(self, v: np.ndarray) -> np.ndarray:
        used = self._used
        out = np.einsum("sj,s->j", self._panel[1:used], v.take(self._col[1:used]))
        out[self._pos] += self._val * v
        return out[:-1]

    def duals(self, c_b: np.ndarray) -> np.ndarray:
        used = self._used
        # a panel column's _pos m is clipped to m - 1 and its _val 0 clears
        # that entry, which the panel's sum then replaces
        y = self._val * c_b.take(self._pos, mode="clip")
        y[self._col[1:used]] = np.einsum("sj,j->s", self._panel[1:used, :-1], c_b)
        return y

    def ftran(self, rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """B^-1 a for the column a with entries `vals` on `rows`."""
        out = np.einsum("sj,s->j", self._panel.take(self._slot.take(rows), axis=0), vals)
        out[self._pos.take(rows)] += self._val.take(rows) * vals
        return out[:-1]

    def pivot(self, nz: np.ndarray, d_nz: np.ndarray, leave: int, d_leave: float):
        """Pivot the column with direction d = B^-1 a into row `leave`.

        `nz` lists the rows where d is nonzero, `d_nz` holds d there, and
        `d_leave` is d[leave].  Returns the new row `leave` of B^-1 as its
        nonzero columns and their values.
        """
        used = self._used
        u = self._unit_at[leave]
        if u >= 0:
            # the unit column with its entry in row `leave` moves into the
            # next panel slot, so that one update below covers every column
            if used == len(self._panel):
                self._grow()
            self._flat[used * (self._m + 1) + leave] = self._val[u]
            self._slot[u], self._col[used] = used, u
            self._pos[u], self._val[u], self._unit_at[leave] = self._m, 0.0, -1
            used = self._used = used + 1
        # each column of B^-1 with an entry e in row `leave` becomes
        # column - (e / d_leave) (d - e_leave)
        lead = self._panel[:used, leave]
        s = lead.nonzero()[0]
        r = lead.take(s) / d_leave
        s_at = s * (self._m + 1)
        at = s_at[:, None] + nz
        flat = self._flat
        flat[at] = flat.take(at) - r[:, None] * d_nz
        flat[s_at + leave] = r
        return self._col.take(s), r

    def _grow(self):
        used = self._used
        panel = np.zeros((2 * used, self._m + 1))
        panel[:used] = self._panel[:used]
        self._set_panel(panel, _grown(self._col, used))

    def _set_panel(self, panel: np.ndarray, col: np.ndarray):
        # the entries by flat index: a view, since the panel is C-contiguous
        # and only ever written in place
        self._panel, self._flat, self._col = panel, panel.reshape(-1), col

    def refactor(self, basis: np.ndarray, ptr: np.ndarray, rows: np.ndarray,
                 vals: np.ndarray) -> None:
        """B^-1 of the basis columns, inverting only what is left of their core.

        Internal column j has the entries `vals[ptr[j]:ptr[j + 1]]` on rows
        `rows[ptr[j]:ptr[j + 1]]`.  A basis column with one nonzero
        (surplus, artificial, a structural column on a single row) is
        eliminated on its own row, and that row's column of B^-1 is a unit
        column; in a nonsingular basis those rows are distinct.  The other
        basis columns form a square core C on the remaining rows.  With D
        the unit columns' entries and C_u the core columns' entries on the
        unit rows, B^-1's columns of the core rows are C^-1 on the core
        positions and -D^-1 C_u C^-1 on the unit positions; they make up the
        new panel.  A core entry a alone in its core row and core column is
        taken first, as a sparse LU starts (Suhl & Suhl, ORSA J. Computing
        2(4), 1990): its column's row of C^-1 is 1/a at a's row, so each of
        the column's unit-row entries gives one entry of B^-1, and only the
        rest of C is inverted and multiplied out, with the bits of the whole
        (up to the sign of a zero).  Raises LinAlgError for a singular
        basis, with the old inverse untouched.
        """
        m = self._m
        lo = ptr[basis]
        lens = ptr[basis + 1] - lo
        unit = lens == 1
        u_pos, c_pos = unit.nonzero()[0], (~unit).nonzero()[0]
        u_row, u_val = rows[lo[u_pos]], vals[lo[u_pos]]
        if not u_val.all():
            raise np.linalg.LinAlgError("a unit basis column has a zero entry")
        # each row's index among the core rows, -1 on a unit row; unit
        # columns that share a row leave more core rows than core columns,
        # and _inverse rejects the non-square core
        core_at = np.zeros(m, dtype=np.int64)
        core_at[u_row] = -1
        c_rows = (core_at == 0).nonzero()[0]
        k = len(c_pos)
        core_at[c_rows] = np.arange(len(c_rows))
        # the core columns' entries, column by column
        c_lo, c_len = lo[c_pos], lens[c_pos]
        n_e = int(c_len.sum())
        at = np.arange(n_e) + (c_lo - (c_len.cumsum() - c_len)).repeat(c_len)
        e_row, e_val, e_col = rows[at], vals[at], np.arange(k).repeat(c_len)
        e_core = core_at[e_row]
        on = (e_core >= 0).nonzero()[0]
        # the lone entries; a lone column's slot is 1 + its entry's core row
        on_core, on_col = e_core[on], e_col[on]
        lone = on[(np.bincount(on_core, minlength=len(c_rows))[on_core] == 1)
                  & (np.bincount(on_col, minlength=k)[on_col] == 1)]
        l_core, l_col, l_val = e_core[lone], e_col[lone], e_val[lone]
        if not l_val.all():
            raise np.linalg.LinAlgError("a lone core entry is zero")
        l_slot = np.zeros(k, dtype=np.int64)
        l_slot[l_col] = 1 + l_core
        inv_a = np.zeros(k)
        inv_a[l_col] = 1.0 / l_val
        rest_row = np.ones(len(c_rows), dtype=bool)
        rest_row[l_core] = False
        rest_col = l_slot == 0

        pos = np.full(m, m)
        pos[u_row] = u_pos
        val = np.zeros(m)
        val[u_row] = 1.0 / u_val
        panel = np.zeros((2 * k + 16, m + 1))
        panel[1 + l_core, c_pos[l_col]] = inv_a[l_col]
        # the unit positions' entries: each core-column entry on a unit row
        # adds -value / (that row's unit entry) times its column's row of
        # C^-1 at its unit column's position, in order, grouped by position
        off = (e_core < 0).nonzero()[0]
        target, coef = pos[e_row[off]], -e_val[off] * val[e_row[off]]
        by_lone = ~rest_col[e_col[off]]
        c = e_col[off[by_lone]]
        panel[l_slot[c], target[by_lone]] = inv_a[c] * coef[by_lone]
        r_rows, r_cols = rest_row.nonzero()[0], rest_col.nonzero()[0]
        if len(r_rows) or len(r_cols):
            order = np.argsort(target, kind="stable")
            off, target, coef, by_lone = off[order], target[order], coef[order], by_lone[order]
            r_at = np.cumsum(rest_col) - 1  # each core column's index in the rest
            rest = on[rest_col[on_col]]
            core = np.zeros((len(r_rows), len(r_cols)))
            core[np.cumsum(rest_row)[e_core[rest]] - 1, r_at[e_col[rest]]] = e_val[rest]
            core_inv = _inverse(core)
            r_slots = 1 + r_rows[:, None]
            panel[r_slots, c_pos[r_cols]] = core_inv.T
            # the rest's entries, a block of rows of C^-1 at a time; the
            # blocks are cut as if no entry were set aside, so that each
            # position's sum is grouped as over the whole core
            step = max(1, _OFF_BLOCK // k)
            for b in range(0, len(off), step):
                blk = b + (~by_lone[b:b + step]).nonzero()[0]
                t = target[blk]
                first = np.diff(t, prepend=-1).nonzero()[0]
                terms = core_inv.take(r_at[e_col[off[blk]]], axis=0)
                terms *= coef[blk, None]
                panel[r_slots, t[first]] += np.add.reduceat(terms, first, axis=0).T
        unit_at = np.full(m, -1)
        unit_at[u_pos] = u_row
        slot = np.zeros(m, dtype=np.int64)
        slot[c_rows] = np.arange(1, k + 1)
        col = np.zeros(len(panel), dtype=np.int64)
        col[1:k + 1] = c_rows
        self._pos, self._val, self._unit_at, self._slot = pos, val, unit_at, slot
        self._set_panel(panel, col)
        self._used = k + 1


class LpModel:
    """A minimization LP over nonnegative variables with fixed rows.

    Rows are given at construction as (sense, rhs) pairs; columns are added
    in batches with `add_columns` (or one at a time with `add_column`) and
    may keep arriving after solves.
    """

    def __init__(self, rows):
        le, eq = RowSense.LE, RowSense.EQ  # member lookups are slow, so out of the loops
        senses, rhs = [], []
        for sense, b in rows:
            if not isinstance(sense, RowSense):
                raise LpStructureError(f"row sense must be RowSense, got {sense!r}")
            b = float(b)
            if not math.isfinite(b):
                raise LpStructureError("row rhs must be finite")
            senses.append(sense)
            rhs.append(b)
        m = len(rhs)
        # last optimal basis, its inverse and its duals c_B B^-1 (before the
        # row scaling); dropped while a solve runs, so a solve that ends in
        # anything but an optimum leaves none of them behind
        self._basis: np.ndarray | None = None
        self._inv: _PanelInverse | None = None
        self._y: np.ndarray | None = None
        self._since_inv = 0  # pivots since the inverse was last computed afresh
        # internal columns in compressed sparse form: column j's nonzeros sit
        # at [_ptr[j], _ptr[j + 1]) of _row (row index), _val and _col (== j),
        # and _c2[j] is its cost.  Every row is scaled by _row_mult (+-1) into
        # an equality with the nonnegative rhs _beq; the surplus columns of
        # the non-equality rows come first, then one artificial per row, then
        # the structural columns, so structural column j is internal column
        # _first_struct + j.
        u = np.fromiter([-1.0 if sense is le else 1.0 for sense in senses], float, m)
        b1 = np.fromiter(rhs, float, m) * u
        s = np.where(b1 < 0, -1.0, 1.0)
        self._row_mult = u * s
        self._beq = b1 * s
        # phase 2's perturbed rhs (module docstring), drawn once
        self._perturbed = self._beq + PERTURB_SCALE * (1.0 + self._beq) * (
            np.random.default_rng(m).uniform(0.5, 1.0, m))
        # the surplus of each non-equality row's >= form, scaled, sits on that
        # row alone, and so does each row's artificial
        surplus = np.flatnonzero(np.fromiter([sense is not eq for sense in senses], bool, m))
        self._row = np.concatenate([surplus, np.arange(m)])
        self._val = np.concatenate([-s[surplus], np.ones(m)])
        self._n_int = self._first_struct = len(self._row)
        # the slack basis: each row's artificial, or its surplus where that
        # has coefficient +1; either way B is the identity
        self._slack_basis = np.arange(len(surplus), self._first_struct)
        crash = np.flatnonzero(s[surplus] < 0)
        self._slack_basis[surplus[crash]] = crash
        self._col = np.arange(self._n_int)
        self._c2 = np.zeros(self._n_int)
        self._ptr = np.arange(self._n_int + 1)

    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self._beq)

    @property
    def num_cols(self) -> int:
        return self._n_int - self._first_struct

    def add_column(self, cost, coeffs) -> int:
        """Append a variable; `coeffs` is an iterable of (row, value) pairs.

        A repeated row raises `LpStructureError`.  Returns the new column's
        index.
        """
        pairs = list(coeffs)
        rows = np.array([row for row, _ in pairs], dtype=np.int64)
        vals = np.array([val for _, val in pairs], dtype=float)
        return self.add_columns([cost], [0, len(pairs)], rows, vals)[0]

    def add_columns(self, costs, ptr, rows, vals) -> range:
        """Append a batch of variables given in compressed sparse form.

        Column i costs `costs[i]` and has the (row, value) pairs
        `rows[ptr[i]:ptr[i + 1]]`, `vals[ptr[i]:ptr[i + 1]]`, stored in the
        order given; a column may list its rows in any order but name each
        once.  The whole batch is checked before any of it is stored, so a
        rejected batch leaves the model unchanged.  Returns the new columns'
        indices.
        """
        costs = np.asarray(costs, dtype=float).reshape(-1)
        ptr = np.asarray(ptr, dtype=np.int64).reshape(-1)
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        vals = np.asarray(vals, dtype=float).reshape(-1)
        n, nnz = len(costs), len(rows)
        lens = np.diff(ptr)
        if (len(ptr) != n + 1 or ptr[0] != 0 or ptr[-1] != nnz or len(vals) != nnz
                or lens.min(initial=0) < 0):
            raise LpStructureError("column batch needs len(ptr) == len(costs) + 1, ptr "
                                   "nondecreasing from 0 to len(rows), and len(vals) == "
                                   "len(rows)")
        if not np.isfinite(costs).all():
            raise LpStructureError("column cost must be finite")
        if not np.isfinite(vals).all():
            raise LpStructureError("column coefficient must be finite")
        if rows.min(initial=0) < 0 or rows.max(initial=-1) >= self.num_rows:
            bad = rows[(rows < 0) | (rows >= self.num_rows)][0]
            raise LpStructureError(f"column references unknown row {bad}")
        # only a column whose rows do not strictly increase may repeat one:
        # step[i] is rows[i] - rows[i - 1] within a column, 1 at its start
        step = np.ones(nnz + 1, dtype=np.int64)
        np.subtract(rows[1:], rows[:-1], out=step[1:nnz])
        step[ptr[:-1]] = 1
        if step.min() <= 0:
            col = np.repeat(np.arange(n), lens)
            order = np.lexsort((rows, col))
            r, c = rows[order], col[order]
            twice = np.flatnonzero((r[1:] == r[:-1]) & (c[1:] == c[:-1]))
            if twice.size:
                raise LpStructureError(f"column {c[twice[0]]} of the batch repeats row "
                                       f"{r[twice[0]]}")
        j, start = self._n_int, int(self._ptr[self._n_int])
        end = start + len(rows)
        if j + n + 1 > len(self._ptr):
            self._ptr = _grown(self._ptr, j + n + 1)
        if j + n > len(self._c2):
            self._c2 = _grown(self._c2, j + n)
        if end > len(self._row):
            self._row, self._val, self._col = (
                _grown(a, end) for a in (self._row, self._val, self._col))
        self._row[start:end] = rows
        self._val[start:end] = vals * self._row_mult[rows]
        self._col[start:end] = np.repeat(np.arange(j, j + n), lens)
        self._ptr[j + 1:j + n + 1] = start + ptr[1:]
        self._c2[j:j + n] = costs
        self._n_int += n
        return range(self.num_cols - n, self.num_cols)

    # ------------------------------------------------------------------
    def _is_artificial(self, cols: np.ndarray) -> np.ndarray:
        return (cols >= self._first_struct - self.num_rows) & (cols < self._first_struct)

    def _cold_start(self) -> tuple[np.ndarray, _PanelInverse]:
        """The crash basis of a cold solve and its inverse (module docstring).

        Each row the slack basis leaves on its artificial takes the lowest
        structural column whose entry there exceeds PIVOT_TOL and which has
        no entry on another such row.  Its other entries sit on rows whose
        basic column is a +1 surplus, so each crashed column's entry on its
        row is alone in the core, and `refactor` inverts no part of it.
        Falls back to the slack basis when that B^-1 b has an entry below
        -FEAS_TOL.
        """
        m, first, n = self.num_rows, self._first_struct, self._n_int
        basis = self._slack_basis.copy()
        held = self._is_artificial(basis)
        lo, hi = self._ptr[first], self._ptr[n]
        rows, vals, cols = self._row[lo:hi], self._val[lo:hi], self._col[lo:hi] - first
        on_held = held[rows]
        held_entries = np.bincount(cols, weights=on_held, minlength=n - first)
        ok = np.flatnonzero(on_held & (vals > PIVOT_TOL) & (held_entries[cols] == 1))
        pick = np.full(m, n - first)
        np.minimum.at(pick, rows[ok], cols[ok])
        crashed = np.flatnonzero(pick < n - first)
        inv = _PanelInverse(m)
        if not crashed.size:
            return basis, inv
        crash = basis.copy()
        crash[crashed] = first + pick[crashed]
        inv.refactor(crash, self._ptr, self._row, self._val)
        if inv.solve(self._beq).min() < -FEAS_TOL:
            return basis, _PanelInverse(m)
        return crash, inv

    # ------------------------------------------------------------------
    def solve(self) -> LpSolution:
        """Run the simplex; warm-starts from the last optimal basis."""
        try:
            return self._solve_attempt(bland_from_start=False, refactor_every=128)
        except _Breakdown as first:
            try:
                return self._solve_attempt(bland_from_start=True, refactor_every=32)
            except _Breakdown as exc:
                raise LpNumericalError(
                    f"simplex failed to converge on {self.num_rows} rows x {self.num_cols} "
                    f"columns: {first}; Bland retry: {exc}") from exc

    def _solve_attempt(self, bland_from_start: bool, refactor_every: int) -> LpSolution:
        beq, m, n = self._beq, self.num_rows, self._n_int
        c2 = self._c2[:n]
        iters = 0

        # a warm start resumes from the last optimum's basis, inverse and
        # duals, which appending columns leaves valid
        basis, inv, y = self._basis, self._inv, self._y
        self._basis = self._inv = self._y = None

        rhs = self._perturbed
        while True:
            if basis is None:
                # phase 1 from the crash basis, at cost 1 on each artificial
                basis, inv = self._cold_start()
                self._since_inv = 0
                c1 = np.zeros(n)
                c1[self._first_struct - m:self._first_struct] = 1.0
                status, n1 = self._simplex(c1, beq, basis, inv, None, bland_from_start,
                                           refactor_every, pin_artificials=False)
                iters += n1
                if status != "optimal":
                    raise _Breakdown(f"phase 1, pivot {n1}: came back {status}")
                xb = np.maximum(inv.solve(beq), 0.0)
                if math.fsum(c1[basis] * xb) > FEAS_TOL:
                    return LpSolution(LpStatus.INFEASIBLE, None, None, None, iters)
                y = None

            status, n2 = self._simplex(c2, rhs, basis, inv, y, bland_from_start,
                                       refactor_every, pin_artificials=True)
            iters += n2
            if status == "unbounded":
                return LpSolution(LpStatus.UNBOUNDED, None, None, None, iters)
            xb = inv.solve(beq)
            if rhs is beq or (xb.min(initial=0.0) >= -FEAS_TOL and
                              xb[self._is_artificial(basis)].max(initial=0.0) <= FEAS_TOL):
                break
            # the perturbed optimum is infeasible under the true rhs, so no
            # basis at hand is known to be feasible: solve again cold, without
            # the perturbation
            basis, rhs = None, beq

        x_int = np.zeros(n)
        x_int[basis] = np.maximum(xb, 0.0)
        x = x_int[self._first_struct:]
        # exactly rounded, so in no order that a thread count could change
        objective = math.fsum(c2[basis] * x_int[basis])
        y = inv.duals(c2[basis])
        duals = y * self._row_mult
        # the next solve warm-starts from this basis unless B^-1 b has an
        # entry below -1e-6; the perturbed exit above already checked that at
        # the tighter -FEAS_TOL, the unperturbed one did not
        if rhs is not beq or not xb.min(initial=0.0) < -1e-6:
            self._basis, self._inv, self._y = basis, inv, y
        return LpSolution(LpStatus.OPTIMAL, x, objective, duals, iters)

    def _simplex(self, costs, rhs, basis, inv, y, bland, refactor_every, pin_artificials):
        """Primal simplex iterations on the current basis, in place.

        The basic values are those of B x_B = `rhs`: the true rhs in phase 1,
        a perturbed copy in phase 2 (see the module docstring), where the
        ratio test then rarely ties at zero.  `inv` is the basis's
        _PanelInverse, and `y` holds the duals `inv.duals(costs[basis])` when
        the caller has them, else None.  Dantzig entering rule, switching to
        Bland's rule once the run of degenerate pivots exceeds 3*(rows+cols).
        Artificials never enter.  With `pin_artificials`, basic artificials
        are never allowed to grow (forced ratio 0), which keeps phase-2
        iterates feasible for the real rows.  Returns (status, pivots).
        """
        m, n = len(rhs), len(costs)
        if m == 0:
            # no rows, so no artificials either
            return ("unbounded" if np.any(costs < -RC_TOL) else "optimal"), 0
        ptr, nnz = self._ptr, self._ptr[n]
        rows, vals, cols = self._row[:nnz], self._val[:nnz], self._col[:nnz]
        phase = 2 if pin_artificials else 1
        max_pivots = max(2000, 60 * (m + n))
        degen_limit = 3 * (m + n)
        degen_run = 0
        pivots = 0
        # artificials are priced at +inf, so they never enter
        priced = costs.copy()
        priced[self._first_struct - m:self._first_struct] = np.inf
        is_art = self._is_artificial(basis)  # kept in step with basis
        n_art = int(is_art.sum())
        # duals and basic values are carried across pivots and recomputed
        # exactly only after a refactorization
        if y is None:
            y = inv.duals(costs[basis])
        xb = np.maximum(inv.solve(rhs), 0.0)
        terms = np.empty(nnz)  # each entry's share of its column's dual price
        rc = np.empty(n)
        while True:
            np.multiply(y.take(rows), vals, out=terms)
            np.subtract(priced, np.bincount(cols, weights=terms, minlength=n), out=rc)
            if bland:
                neg = (rc < -RC_TOL).nonzero()[0]
                if not neg.size:
                    return "optimal", pivots
                enter = int(neg[0])
            else:
                enter = int(rc.argmin())
                if rc[enter] >= -RC_TOL:
                    return "optimal", pivots
            lo, hi = ptr[enter], ptr[enter + 1]
            d = inv.ftran(rows[lo:hi], vals[lo:hi])
            # the direction touches few rows; the ratio test runs over the
            # ones where it is positive, plus, in phase 2, the basic
            # artificials it would push above zero, which get ratio 0
            nz = d.nonzero()[0]
            d_nz = d.take(nz)
            up = d_nz > PIVOT_TOL
            cand = nz[up]
            theta = xb.take(cand) / d_nz[up]
            pinned = (nz[(d_nz < -PIVOT_TOL) & is_art[nz]]
                      if pin_artificials and n_art else ())
            if len(pinned):
                t_min = 0.0
                ties = np.sort(np.concatenate([cand[theta == 0.0], pinned]))
            elif cand.size:
                t_min = theta.min()
                ties = cand[theta == t_min]
            else:
                return "unbounded", pivots
            if ties.size == 1:
                leave = int(ties[0])
            elif bland:
                leave = int(ties[basis[ties].argmin()])
            else:
                art_tie = ties[is_art[ties]]
                pool = art_tie if art_tie.size else ties
                leave = int(pool[np.abs(d[pool]).argmax()])
            rnz, row_nz = inv.pivot(nz, d_nz, leave, d[leave])
            xb[nz] = np.maximum(xb.take(nz) - t_min * d_nz, 0.0)
            xb[leave] = t_min
            y[rnz] += rc[enter] * row_nz
            basis[leave] = enter
            if is_art[leave]:
                is_art[leave] = False  # artificials never enter
                n_art -= 1
            pivots += 1
            if t_min <= 1e-12:
                degen_run += 1
                if degen_run > degen_limit:
                    bland = True
            else:
                degen_run = 0
            self._since_inv += 1
            if self._since_inv >= refactor_every:
                try:
                    inv.refactor(basis, ptr, self._row, self._val)
                except np.linalg.LinAlgError as exc:
                    raise _Breakdown(f"phase {phase}, pivot {pivots}: singular basis "
                                     "during refactorization") from exc
                self._since_inv = 0
                y = inv.duals(costs[basis])
                xb = np.maximum(inv.solve(rhs), 0.0)
            if pivots > max_pivots:
                raise _Breakdown(f"phase {phase}, pivot {pivots}: pivot limit exceeded")
