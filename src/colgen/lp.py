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
store).  Today's storage is the explicit dense inverse.  A pivot's rank-1
update touches only its entries in the direction's nonzero rows and the pivot
row's nonzero columns.  A refactorization works in place: columns with a
single nonzero (surplus, artificial, single-row structural) are eliminated on
their rows, only the square core of the rest is inverted, and the block form
is written over the old inverse once that core inverse exists.  The one other
source of B^-1 is a cold start, whose triangular crash inverse is written down
directly (below).

The basic values and the duals are carried across pivots by the same step and
recomputed exactly at each refactorization, every few pivots.  Columns can be
appended after a solve: that leaves the basis, its inverse and its duals
valid, so a re-solve resumes from all three, which keeps re-solves cheap in
column-generation loops.  A warm solve recomputes only what the new columns
change: the reduced costs, and the perturbed right-hand side (drawn anew for
the new column count) with its basic values.  It does not check again that the
basis is feasible under the true right-hand side: a perturbed solve checked
that, at the tighter FEAS_TOL, before it exited, and a solve that ended on the
unperturbed cold retry below checks it at its exit instead.  A solve's
returned values and duals are computed afresh from the inverse, not carried.

A cold solve crash-starts phase 1 in two steps.  First, every row whose
scaled surplus column has coefficient +1 (a <= row with a positive rhs, a >=
row with a negative one) starts with that surplus basic instead of its
artificial.  Second, each row still held by its artificial takes the
lowest-index structural column with a positive entry on it and no entry on
any other artificial-held row (Bixby, "Implementing the simplex method: the
initial basis", ORSA J. Computing 4(3), 1992).  Such a basis is triangular,
so its inverse is written down directly; it is used only if its basic values
are feasible, and otherwise phase 1 starts from the first step's basis, which
is the identity.  In a decomposition master this puts each block's initial
column on its convexity row, where phase 1 would otherwise pivot it in one
row at a time.  Phase 2
runs on a right-hand side raised by a small, bounded random amount per row
(Koberstein, "The dual simplex method, techniques for a fast and stable
implementation", PhD thesis, Paderborn 2005, section 6), which breaks the
ties that make degenerate masters stall.  The perturbation is removed at the
end: the final basis is accepted only if its basic values under the true
right-hand side are feasible, which makes it optimal, since reduced costs do
not depend on the right-hand side.  Otherwise the solve starts again from a
cold phase 1 and runs phase 2 on the true right-hand side.  The perturbation
is drawn from a generator seeded by the LP's size, so solves are
deterministic.

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


class _DenseInverse:
    """B^-1 of a basis, kept as a dense row-major m x m array written in place.

    Once the array is handed over, this is the only code that reads or writes
    it; see the module docstring for the five operations.
    """

    def __init__(self, b_inv: np.ndarray):
        self._a = b_inv
        self._m = len(b_inv)
        # the entries by flat index: a view, since the array is C-contiguous
        # and only ever written in place
        self._flat = b_inv.reshape(-1)

    @property
    def dense(self) -> np.ndarray:
        """The inverse as an m x m array, to read."""
        return self._a

    def solve(self, v: np.ndarray) -> np.ndarray:
        return self._a @ v

    def duals(self, c_b: np.ndarray) -> np.ndarray:
        return c_b @ self._a

    def ftran(self, rows: np.ndarray, vals: np.ndarray) -> np.ndarray:
        """B^-1 a for the column a with entries `vals` on `rows`."""
        return self._a[:, rows] @ vals

    def pivot(self, nz: np.ndarray, d_nz: np.ndarray, leave: int, d_leave: float):
        """Pivot the column with direction d = B^-1 a into row `leave`.

        `nz` lists the rows where d is nonzero, `d_nz` holds d there, and
        `d_leave` is d[leave].  Returns the new row `leave` of B^-1 as its
        nonzero columns and their values.
        """
        row = self._a[leave] / d_leave
        # rank-1 update, only on the entries in the rows the direction
        # touches and the columns where the pivot row is nonzero: every
        # other entry would lose d_i * 0.  The leaving row's update is
        # overwritten.
        rnz = row.nonzero()[0]
        row_nz = row.take(rnz)
        at = (nz * self._m)[:, None] + rnz
        self._flat[at] = self._flat.take(at) - d_nz[:, None] * row_nz
        self._a[leave] = row
        return rnz, row_nz

    def refactor(self, basis: np.ndarray, ptr: np.ndarray, rows: np.ndarray,
                 vals: np.ndarray) -> None:
        """B^-1 of the basis columns, inverting only their multi-entry core.

        Internal column j has the entries `vals[ptr[j]:ptr[j + 1]]` on rows
        `rows[ptr[j]:ptr[j + 1]]`.  A basis column with one nonzero
        (surplus, artificial, a structural column on a single row) is
        eliminated on its own row; in a nonsingular basis those rows are
        distinct.  The other columns form a square core on the remaining
        rows, and B^-1 is assembled in block form from the core's inverse
        over the old one, once the core has been inverted.  Raises
        LinAlgError for a singular basis, with the old inverse untouched.
        """
        m = len(basis)
        lo = ptr[basis]
        unit = ptr[basis + 1] - lo == 1
        u_pos, c_pos = np.flatnonzero(unit), np.flatnonzero(~unit)
        u_row, u_val = rows[lo[u_pos]], vals[lo[u_pos]]
        if not u_val.all():
            raise np.linalg.LinAlgError("a unit basis column has a zero entry")
        # unit columns that share a row leave more core rows than core
        # columns, and inv rejects the non-square core
        is_core_row = np.ones(m, dtype=bool)
        is_core_row[u_row] = False
        c_rows = np.flatnonzero(is_core_row)
        core = np.zeros((m, len(c_pos)))
        for k, j in enumerate(basis[c_pos]):
            core[rows[ptr[j]:ptr[j + 1]], k] = vals[ptr[j]:ptr[j + 1]]
        core_inv = np.linalg.inv(core[c_rows])
        inv_u = 1.0 / u_val
        u_block = core[u_row] @ core_inv
        u_block *= -inv_u[:, None]
        out = self._a
        out.fill(0.0)
        out[np.ix_(c_pos, c_rows)] = core_inv
        out[u_pos, u_row] = inv_u
        out[np.ix_(u_pos, c_rows)] = u_block


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
        self._inv: _DenseInverse | None = None
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

    def _cold_start(self) -> tuple[np.ndarray, _DenseInverse]:
        """The crash basis of a cold solve and its inverse (module docstring).

        Each row the slack basis leaves on its artificial takes the lowest
        structural column whose entry there exceeds PIVOT_TOL and which has
        no entry on another such row.  Its other entries sit on rows whose
        basic column is a +1 surplus, so B^-1 is the identity except in the
        crashed rows' columns: 1/a_rr on the pivot row, -a_sr/a_rr on each
        of the column's other rows.  Falls back to the slack basis when that
        B^-1 b has an entry below -FEAS_TOL.
        """
        m, first, n = self.num_rows, self._first_struct, self._n_int
        basis, b_inv = self._slack_basis.copy(), np.eye(m)
        held = self._is_artificial(basis)
        lo, hi = self._ptr[first], self._ptr[n]
        rows, vals, cols = self._row[lo:hi], self._val[lo:hi], self._col[lo:hi] - first
        on_held = held[rows]
        held_entries = np.bincount(cols, weights=on_held, minlength=n - first)
        ok = np.flatnonzero(on_held & (vals > PIVOT_TOL) & (held_entries[cols] == 1))
        pick = np.full(m, n - first)
        np.minimum.at(pick, rows[ok], cols[ok])
        crashed = np.flatnonzero(pick < n - first)
        if not crashed.size:
            return basis, _DenseInverse(b_inv)
        # the chosen columns' entries, each with its column's pivot row
        pivot_row = np.full(n - first, -1)
        pivot_row[pick[crashed]] = crashed
        entries = np.flatnonzero(pivot_row[cols] >= 0)
        e_rows, e_vals, e_piv = rows[entries], vals[entries], pivot_row[cols[entries]]
        on_pivot = e_rows == e_piv
        a = np.empty(m)
        a[e_rows[on_pivot]] = e_vals[on_pivot]
        off = ~on_pivot
        b_inv[crashed, crashed] = 1.0 / a[crashed]
        b_inv[e_rows[off], e_piv[off]] = -e_vals[off] / a[e_piv[off]]
        if (b_inv @ self._beq).min() < -FEAS_TOL:
            return basis, _DenseInverse(np.eye(m))
        basis[crashed] = first + pick[crashed]
        return basis, _DenseInverse(b_inv)

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

        # phase 2's perturbed rhs, drawn the same way on every solve of this
        # size; a uint32 seed array draws what the list [m, n] draws, and
        # builds the generator faster
        rng = np.random.default_rng(np.array([m, n], dtype=np.uint32))
        rhs = beq + PERTURB_SCALE * (1.0 + beq) * rng.uniform(0.5, 1.0, m)
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
                if float(c1[basis] @ xb) > FEAS_TOL:
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
        objective = float(c2[self._first_struct:] @ x)
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
        _DenseInverse, and `y` holds the duals `inv.duals(costs[basis])` when
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
