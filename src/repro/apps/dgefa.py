"""The §9 case study: ``dgefa`` — LINPACK LU factorization.

The paper's empirical evaluation compiles ``dgefa`` (the LINPACK
right-looking LU factorization, whose inner kernels are the BLAS-1 calls
``idamax``/``dscal``/``daxpy`` invoked from nested loops) and shows that
interprocedural optimization is *crucial*: with run-time resolution or
without cross-procedure message vectorization the program is orders of
magnitude slower than the interprocedurally optimized version, which
approaches hand-written node code.

Our Fortran D source keeps the call structure that makes the problem
interesting — the BLAS operations are separate procedures called inside
the ``k``/``j`` elimination loops — while staying in the whole-array-
passing subset (the column index is passed explicitly rather than by
passing ``a(k+1, j)`` slices; the loop/ownership structure, message
pattern and operation counts are identical to LINPACK's).  The §9
benchmarks use the unpivoted variant (as most distributed-memory dgefa
studies of the period did: pivoting does not change the communication
pattern being measured); :func:`dgefa_pivot_source` provides the full
partially-pivoted algorithm, compiled with a broadcast-then-replicated
pivot search and an all-local distributed row swap.

Expected compiled shape (column-cyclic distribution over P processors)::

    do k = 1, n-1
      if (owner(col k) == my$p) call dscal(a, n, k)   ! scale pivot column
      broadcast a(k+1:n, k) from owner(col k)          ! one bcast per k
      do j = k+1+pmod(my$p-k, P), n, P                 ! owned columns only
        call daxpy(a, n, k, j)                         ! local update
      enddo
    enddo
"""

from __future__ import annotations

import numpy as np


def dgefa_source(n: int = 64) -> str:
    """Fortran D dgefa with column-cyclic distribution."""
    return f"""
program main
real a({n},{n})
parameter (n = {n})
distribute a(:, cyclic)
call dgefa(a, n)
end

subroutine dgefa(a, n)
real a(n,n)
integer n, k, j
do k = 1, n - 1
  call dscal(a, n, k)
  do j = k + 1, n
    call daxpy(a, n, k, j)
  enddo
enddo
end

subroutine dscal(a, n, k)
real a(n,n)
integer n, k, i
do i = k + 1, n
  a(i, k) = a(i, k) / a(k, k)
enddo
end

subroutine daxpy(a, n, k, j)
real a(n,n)
integer n, k, j, i
do i = k + 1, n
  a(i, j) = a(i, j) - a(k, j) * a(i, k)
enddo
end
"""


def make_dgefa_init(n: int):
    """Deterministic, diagonally dominant initializer (LU without
    pivoting requires nonzero pivots; dominance keeps it well
    conditioned)."""

    def init(name: str, indices: tuple[int, ...]) -> float:
        if len(indices) != 2:
            return 0.0  # vectors (right-hand sides) start zeroed
        i, j = indices
        base = 1.0 + ((i * 31 + j * 17) % 97) / 97.0
        if i == j:
            base += 2.0 * n
        return base

    return init


def dgefa_pivot_source(n: int = 64) -> str:
    """dgefa *with partial pivoting* — the full LINPACK algorithm.

    Under column-cyclic layout the pivot column is broadcast once per
    step (hoisted out of the search loop by dependence analysis); every
    node then runs the same argmax, so the pivot row index needs no
    extra communication.  The row swap runs over distributed columns
    with an aligned auxiliary row (a scalar temporary would serialize
    it)."""
    return f"""
program main
real a({n},{n}), swp({n})
parameter (n = {n})
distribute a(:, cyclic)
distribute swp(cyclic)
call pivgefa(a, swp, n)
end

subroutine pivgefa(a, swp, n)
real a(n,n), swp(n)
integer n, k, j, l
do k = 1, n - 1
  big = 0.0
  l = k
  do i = k, n
    if (abs(a(i, k)) > big) then
      big = abs(a(i, k))
      l = i
    endif
  enddo
  call rowswap(a, swp, n, k, l)
  call dscal(a, n, k)
  do j = k + 1, n
    call daxpy(a, n, k, j)
  enddo
enddo
end

subroutine rowswap(a, swp, n, k, l)
real a(n,n), swp(n)
integer n, k, l, j
do j = 1, n
  swp(j) = a(k, j)
enddo
do j = 1, n
  a(k, j) = a(l, j)
enddo
do j = 1, n
  a(l, j) = swp(j)
enddo
end

subroutine dscal(a, n, k)
real a(n,n)
integer n, k, i
do i = k + 1, n
  a(i, k) = a(i, k) / a(k, k)
enddo
end

subroutine daxpy(a, n, k, j)
real a(n,n)
integer n, k, j, i
do i = k + 1, n
  a(i, j) = a(i, j) - a(k, j) * a(i, k)
enddo
end
"""


def dgefa_pivot_reference(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Sequential LU with partial pivoting matching the Fortran
    operation-for-operation (ties resolve to the first maximum, as the
    strict > comparison does)."""
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    pivots: list[int] = []
    for k in range(n - 1):
        # strict-> semantics: first index attaining the maximum
        col = np.abs(a[k:, k])
        l = k + int(np.argmax(col))
        pivots.append(l)
        if l != k:
            a[[k, l], :] = a[[l, k], :]
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return a, pivots


def dgefa_dgesl_source(n: int = 64) -> str:
    """LINPACK pair: factor (dgefa) then solve (dgesl, forward and back
    substitution) — the full workflow the benchmark suite times.

    With column-cyclic layout the solves walk columns: at step k the
    owner of column k updates x(k); the column's segment scales the
    remaining right-hand side on every processor, so the compiler must
    broadcast x's pivot element and keep the daxpy-style updates local.
    For the whole-array subset we store the right-hand side replicated
    (a common choice for LINPACK node solvers) and let the reduction
    and broadcast machinery handle the rest.
    """
    return f"""
program main
real a({n},{n}), b({n})
parameter (n = {n})
distribute a(:, cyclic)
call dgefa(a, n)
call dgesl(a, b, n)
end

subroutine dgefa(a, n)
real a(n,n)
integer n, k, j
do k = 1, n - 1
  call dscal(a, n, k)
  do j = k + 1, n
    call daxpy(a, n, k, j)
  enddo
enddo
end

subroutine dscal(a, n, k)
real a(n,n)
integer n, k, i
do i = k + 1, n
  a(i, k) = a(i, k) / a(k, k)
enddo
end

subroutine daxpy(a, n, k, j)
real a(n,n)
integer n, k, j, i
do i = k + 1, n
  a(i, j) = a(i, j) - a(k, j) * a(i, k)
enddo
end

subroutine dgesl(a, b, n)
real a(n,n), b(n)
integer n, k, i
do i = 1, n
  b(i) = i * 1.0
enddo
do k = 1, n - 1
  call forward(a, b, n, k)
enddo
do k = n, 1, -1
  call backward(a, b, n, k)
enddo
end

subroutine forward(a, b, n, k)
real a(n,n), b(n)
integer n, k, i
do i = k + 1, n
  b(i) = b(i) - a(i, k) * b(k)
enddo
end

subroutine backward(a, b, n, k)
real a(n,n), b(n)
integer n, k, i
b(k) = b(k) / a(k, k)
do i = 1, k - 1
  b(i) = b(i) - a(i, k) * b(k)
enddo
end
"""


def dgesl_reference(lu: np.ndarray) -> np.ndarray:
    """Sequential forward/back substitution matching the Fortran."""
    n = lu.shape[0]
    b = np.arange(1, n + 1, dtype=np.float64)
    for k in range(n - 1):
        b[k + 1:] -= lu[k + 1:, k] * b[k]
    for k in range(n - 1, -1, -1):
        b[k] /= lu[k, k]
        b[:k] -= lu[:k, k] * b[k]
    return b


def dgefa_reference_lu(a: np.ndarray) -> np.ndarray:
    """Sequential right-looking LU (no pivoting) in NumPy, matching the
    Fortran source operation-for-operation."""
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    for k in range(n - 1):
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    return a


def handcoded_dgefa_spmd(ctx, n: int, init_fn):
    """Hand-written SPMD node program for column-cyclic dgefa on the
    simulated machine — the performance target compiled code should
    approach (§9's hand-coded comparison).

    A generator node program (``Machine.run(lambda ctx:
    handcoded_dgefa_spmd(ctx, n, init))``); returns this node's copy of
    the matrix (its owned columns valid).
    """
    P = ctx.nprocs
    me = ctx.rank
    a = np.empty((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(n):
            a[i, j] = init_fn("a", (i + 1, j + 1))
    elem = 8
    for k in range(n - 1):
        owner = k % P  # column k+1 in Fortran indexing -> (k+1-1) % P
        m = n - k - 1
        if me == owner:
            ctx.compute(m)  # the dscal divides
            a[k + 1:, k] /= a[k, k]
            yield from ctx.broadcast_y(owner, a[k + 1:, k].copy(), m * elem)
        else:
            a[k + 1:, k] = yield from ctx.broadcast_y(owner, None, m * elem)
        # update owned columns j in k+1..n-1 (0-based), j % P == me
        start = k + 1 + ((me - (k + 1)) % P)
        cols = range(start, n, P)
        ncols = len(range(start, n, P))
        ctx.compute(2.0 * m * ncols)
        for j in cols:
            a[k + 1:, j] -= a[k, j] * a[k + 1:, k]
    return a
