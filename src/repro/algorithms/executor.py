"""Kernel executors.

The tiled algorithm drivers (:mod:`repro.algorithms.tiled_qr`,
:mod:`repro.algorithms.bidiag`, …) are written once, in terms of abstract
tile operations ("GEQRT tile (i, k)", "TSMQR tiles (piv, j) / (i, j) with
the reflectors of column k", …).  *Executors* give those operations a
meaning:

* :class:`NumericExecutor` applies the real Householder kernels to a
  :class:`~repro.tiles.matrix.TiledMatrix`, producing an actual
  factorization;
* :class:`~repro.ir.recorder.ProgramRecorder` (defined with the IR)
  records each operation as an op with its read/write sets, producing the
  compiled :class:`~repro.ir.program.Program` used for critical-path
  analysis and runtime simulation;
* :class:`MultiExecutor` fans an operation out to several executors, so one
  run can produce the numbers *and* the DAG that was executed.

This split guarantees that the DAG we analyse is exactly the DAG we
execute — both come from the same driver code path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Sequence, Tuple


from repro.kernels import lq_kernels as lqk
from repro.kernels import qr_kernels as qrk
from repro.tiles.matrix import TiledMatrix


class KernelExecutor(ABC):
    """Interface every executor implements.

    Index conventions (all 0-based tile indices):

    * QR kernels act on *column* ``k``: ``i`` / ``piv`` are tile rows.
    * LQ kernels act on *row* ``k``: ``j`` / ``piv`` are tile columns.
    """

    @property
    @abstractmethod
    def p(self) -> int:
        """Number of tile rows of the matrix being factored."""

    @property
    @abstractmethod
    def q(self) -> int:
        """Number of tile columns of the matrix being factored."""

    # -- QR family ------------------------------------------------------ #
    @abstractmethod
    def geqrt(self, i: int, k: int) -> None:
        """Factor tile ``(i, k)`` into a triangle."""

    @abstractmethod
    def unmqr(self, i: int, k: int, j: int) -> None:
        """Apply the reflectors of ``geqrt(i, k)`` to tile ``(i, j)``."""

    @abstractmethod
    def tsqrt(self, piv: int, i: int, k: int) -> None:
        """Zero square tile ``(i, k)`` with the triangle in ``(piv, k)``."""

    @abstractmethod
    def tsmqr(self, piv: int, i: int, k: int, j: int) -> None:
        """Apply the reflectors of ``tsqrt(piv, i, k)`` to tiles ``(piv, j)`` / ``(i, j)``."""

    @abstractmethod
    def ttqrt(self, piv: int, i: int, k: int) -> None:
        """Zero triangular tile ``(i, k)`` with the triangle in ``(piv, k)``."""

    @abstractmethod
    def ttmqr(self, piv: int, i: int, k: int, j: int) -> None:
        """Apply the reflectors of ``ttqrt(piv, i, k)`` to tiles ``(piv, j)`` / ``(i, j)``."""

    # -- LQ family ------------------------------------------------------ #
    @abstractmethod
    def gelqt(self, k: int, j: int) -> None:
        """Factor tile ``(k, j)`` into a lower triangle (LQ panel)."""

    @abstractmethod
    def unmlq(self, k: int, j: int, i: int) -> None:
        """Apply the reflectors of ``gelqt(k, j)`` to tile ``(i, j)``."""

    @abstractmethod
    def tslqt(self, piv: int, j: int, k: int) -> None:
        """Zero square tile ``(k, j)`` with the triangle in ``(k, piv)``."""

    @abstractmethod
    def tsmlq(self, piv: int, j: int, k: int, i: int) -> None:
        """Apply the reflectors of ``tslqt(piv, j, k)`` to tiles ``(i, piv)`` / ``(i, j)``."""

    @abstractmethod
    def ttlqt(self, piv: int, j: int, k: int) -> None:
        """Zero triangular tile ``(k, j)`` with the triangle in ``(k, piv)``."""

    @abstractmethod
    def ttmlq(self, piv: int, j: int, k: int, i: int) -> None:
        """Apply the reflectors of ``ttlqt(piv, j, k)`` to tiles ``(i, piv)`` / ``(i, j)``."""


class NumericExecutor(KernelExecutor):
    """Executor that applies the real Householder kernels to a tiled matrix.

    Parameters
    ----------
    matrix:
        The matrix to factor, modified in place tile by tile.
    log_transformations:
        When ``True`` every orthogonal transformation is appended to
        :attr:`transform_log` as ``(side, kind, indices, reflector)`` so that
        the orthogonal factors ``U`` / ``V`` can be accumulated afterwards
        (used by the numeric backend's ``gesvd`` stage).
    """

    def __init__(self, matrix: TiledMatrix, log_transformations: bool = False) -> None:
        self.matrix = matrix
        self.log_transformations = log_transformations
        #: (side, kernel, index tuple, reflector) in application order.
        self.transform_log: List[Tuple[str, str, Tuple[int, ...], object]] = []
        self._qr_panel: Dict[Tuple[int, int], qrk.QRReflector] = {}
        self._qr_pair: Dict[Tuple[int, int, int], qrk.QRReflector] = {}
        self._lq_panel: Dict[Tuple[int, int], lqk.LQReflector] = {}
        self._lq_pair: Dict[Tuple[int, int, int], lqk.LQReflector] = {}

    # -- geometry ------------------------------------------------------- #
    @property
    def p(self) -> int:
        return self.matrix.p

    @property
    def q(self) -> int:
        return self.matrix.q

    def _log(self, side: str, kernel: str, idx: Tuple[int, ...], refl: object) -> None:
        if self.log_transformations:
            self.transform_log.append((side, kernel, idx, refl))

    # -- QR family ------------------------------------------------------ #
    def geqrt(self, i: int, k: int) -> None:
        r, refl = qrk.geqrt(self.matrix[i, k])
        self.matrix[i, k] = r
        self._qr_panel[(i, k)] = refl
        self._log("left", "GEQRT", (i, k), refl)

    def unmqr(self, i: int, k: int, j: int) -> None:
        refl = self._qr_panel[(i, k)]
        self.matrix[i, j] = qrk.unmqr(refl, self.matrix[i, j])

    def tsqrt(self, piv: int, i: int, k: int) -> None:
        new_top, new_bot, refl = qrk.tsqrt(self.matrix[piv, k], self.matrix[i, k])
        self.matrix[piv, k] = new_top
        self.matrix[i, k] = new_bot
        self._qr_pair[(piv, i, k)] = refl
        self._log("left", "TSQRT", (piv, i, k), refl)

    def tsmqr(self, piv: int, i: int, k: int, j: int) -> None:
        refl = self._qr_pair[(piv, i, k)]
        top, bot = qrk.tsmqr(refl, self.matrix[piv, j], self.matrix[i, j])
        self.matrix[piv, j] = top
        self.matrix[i, j] = bot

    def ttqrt(self, piv: int, i: int, k: int) -> None:
        new_top, new_bot, refl = qrk.ttqrt(self.matrix[piv, k], self.matrix[i, k])
        self.matrix[piv, k] = new_top
        self.matrix[i, k] = new_bot
        self._qr_pair[(piv, i, k)] = refl
        self._log("left", "TTQRT", (piv, i, k), refl)

    def ttmqr(self, piv: int, i: int, k: int, j: int) -> None:
        refl = self._qr_pair[(piv, i, k)]
        top, bot = qrk.ttmqr(refl, self.matrix[piv, j], self.matrix[i, j])
        self.matrix[piv, j] = top
        self.matrix[i, j] = bot

    # -- LQ family ------------------------------------------------------ #
    def gelqt(self, k: int, j: int) -> None:
        l, refl = lqk.gelqt(self.matrix[k, j])
        self.matrix[k, j] = l
        self._lq_panel[(k, j)] = refl
        self._log("right", "GELQT", (k, j), refl)

    def unmlq(self, k: int, j: int, i: int) -> None:
        refl = self._lq_panel[(k, j)]
        self.matrix[i, j] = lqk.unmlq(refl, self.matrix[i, j])

    def tslqt(self, piv: int, j: int, k: int) -> None:
        new_left, new_right, refl = lqk.tslqt(self.matrix[k, piv], self.matrix[k, j])
        self.matrix[k, piv] = new_left
        self.matrix[k, j] = new_right
        self._lq_pair[(piv, j, k)] = refl
        self._log("right", "TSLQT", (piv, j, k), refl)

    def tsmlq(self, piv: int, j: int, k: int, i: int) -> None:
        refl = self._lq_pair[(piv, j, k)]
        left, right = lqk.tsmlq(refl, self.matrix[i, piv], self.matrix[i, j])
        self.matrix[i, piv] = left
        self.matrix[i, j] = right

    def ttlqt(self, piv: int, j: int, k: int) -> None:
        new_left, new_right, refl = lqk.ttlqt(self.matrix[k, piv], self.matrix[k, j])
        self.matrix[k, piv] = new_left
        self.matrix[k, j] = new_right
        self._lq_pair[(piv, j, k)] = refl
        self._log("right", "TTLQT", (piv, j, k), refl)

    def ttmlq(self, piv: int, j: int, k: int, i: int) -> None:
        refl = self._lq_pair[(piv, j, k)]
        left, right = lqk.ttmlq(refl, self.matrix[i, piv], self.matrix[i, j])
        self.matrix[i, piv] = left
        self.matrix[i, j] = right


class MultiExecutor(KernelExecutor):
    """Fan every operation out to several executors (e.g. numeric + trace)."""

    def __init__(self, executors: Sequence[KernelExecutor]) -> None:
        if not executors:
            raise ValueError("MultiExecutor needs at least one executor")
        shapes = {(e.p, e.q) for e in executors}
        if len(shapes) != 1:
            raise ValueError(f"executors disagree on the tile shape: {shapes}")
        self.executors = list(executors)

    @property
    def p(self) -> int:
        return self.executors[0].p

    @property
    def q(self) -> int:
        return self.executors[0].q

    def _broadcast(self, method: str, *args) -> None:
        for executor in self.executors:
            getattr(executor, method)(*args)

    def geqrt(self, i, k):
        self._broadcast("geqrt", i, k)

    def unmqr(self, i, k, j):
        self._broadcast("unmqr", i, k, j)

    def tsqrt(self, piv, i, k):
        self._broadcast("tsqrt", piv, i, k)

    def tsmqr(self, piv, i, k, j):
        self._broadcast("tsmqr", piv, i, k, j)

    def ttqrt(self, piv, i, k):
        self._broadcast("ttqrt", piv, i, k)

    def ttmqr(self, piv, i, k, j):
        self._broadcast("ttmqr", piv, i, k, j)

    def gelqt(self, k, j):
        self._broadcast("gelqt", k, j)

    def unmlq(self, k, j, i):
        self._broadcast("unmlq", k, j, i)

    def tslqt(self, piv, j, k):
        self._broadcast("tslqt", piv, j, k)

    def tsmlq(self, piv, j, k, i):
        self._broadcast("tsmlq", piv, j, k, i)

    def ttlqt(self, piv, j, k):
        self._broadcast("ttlqt", piv, j, k)

    def ttmlq(self, piv, j, k, i):
        self._broadcast("ttmlq", piv, j, k, i)
