"""Kernel executors.

The tiled algorithm drivers (:mod:`repro.algorithms.tiled_qr`,
:mod:`repro.algorithms.bidiag`, …) are written once, in terms of abstract
tile operations ("GEQRT tile (i, k)", "TSMQR tiles (piv, j) / (i, j) with
the reflectors of column k", …).  *Executors* give those operations a
meaning:

* :class:`NumericExecutor` applies the real Householder kernels to a
  :class:`~repro.tiles.matrix.TiledMatrix`, one LAPACK tile-kernel call
  per operation, producing an actual factorization;
* :class:`~repro.ir.recorder.ProgramRecorder` (defined with the IR)
  records each operation's kernel and tile indices and then infers the
  dependencies from its table of the tile halves each kernel reads and
  writes, producing the compiled :class:`~repro.ir.program.Program` used
  for critical-path analysis and runtime simulation.

This split guarantees that the DAG we analyse is exactly the DAG we
execute — both come from the same driver code path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Tuple

from repro.config import default_config
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

    Each operation is one kernel call, looked up on its kernel module at
    call time (so whatever wraps the module attribute sees every call).
    The tiles a kernel returns have its inputs' shapes and go straight
    into the matrix's tile store.

    Parameters
    ----------
    matrix:
        The matrix to factor, modified in place tile by tile.
    log_transformations:
        When ``True`` every orthogonal transformation is appended to
        :attr:`transform_log` as ``(side, kind, indices, reflector)`` so that
        the orthogonal factors ``U`` / ``V`` can be accumulated afterwards
        (used by the numeric backend's ``gesvd`` stage).
    inner_block:
        Inner blocking ``ib`` of the factor kernels' ``T`` factors
        (:attr:`repro.config.Config.inner_block`).
    """

    def __init__(
        self,
        matrix: TiledMatrix,
        log_transformations: bool = False,
        inner_block: int = default_config.inner_block,
    ) -> None:
        if inner_block < 1:
            raise ValueError(f"inner_block must be >= 1, got {inner_block}")
        self.matrix = matrix
        self.log_transformations = log_transformations
        self.ib = inner_block
        self._tiles = matrix.store
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
        tiles = self._tiles
        tiles[i, k], refl = qrk.geqrt(tiles[i, k], self.ib)
        self._qr_panel[i, k] = refl
        self._log("left", "GEQRT", (i, k), refl)

    def unmqr(self, i: int, k: int, j: int) -> None:
        tiles = self._tiles
        tiles[i, j] = qrk.unmqr(self._qr_panel[i, k], tiles[i, j])

    def tsqrt(self, piv: int, i: int, k: int) -> None:
        tiles = self._tiles
        tiles[piv, k], tiles[i, k], refl = qrk.tsqrt(tiles[piv, k], tiles[i, k], self.ib)
        self._qr_pair[piv, i, k] = refl
        self._log("left", "TSQRT", (piv, i, k), refl)

    def tsmqr(self, piv: int, i: int, k: int, j: int) -> None:
        tiles = self._tiles
        refl = self._qr_pair[piv, i, k]
        tiles[piv, j], tiles[i, j] = qrk.tsmqr(refl, tiles[piv, j], tiles[i, j])

    def ttqrt(self, piv: int, i: int, k: int) -> None:
        tiles = self._tiles
        tiles[piv, k], tiles[i, k], refl = qrk.ttqrt(tiles[piv, k], tiles[i, k], self.ib)
        self._qr_pair[piv, i, k] = refl
        self._log("left", "TTQRT", (piv, i, k), refl)

    def ttmqr(self, piv: int, i: int, k: int, j: int) -> None:
        tiles = self._tiles
        refl = self._qr_pair[piv, i, k]
        tiles[piv, j], tiles[i, j] = qrk.ttmqr(refl, tiles[piv, j], tiles[i, j])

    # -- LQ family ------------------------------------------------------ #
    def gelqt(self, k: int, j: int) -> None:
        tiles = self._tiles
        tiles[k, j], refl = lqk.gelqt(tiles[k, j], self.ib)
        self._lq_panel[k, j] = refl
        self._log("right", "GELQT", (k, j), refl)

    def unmlq(self, k: int, j: int, i: int) -> None:
        tiles = self._tiles
        tiles[i, j] = lqk.unmlq(self._lq_panel[k, j], tiles[i, j])

    def tslqt(self, piv: int, j: int, k: int) -> None:
        tiles = self._tiles
        tiles[k, piv], tiles[k, j], refl = lqk.tslqt(tiles[k, piv], tiles[k, j], self.ib)
        self._lq_pair[piv, j, k] = refl
        self._log("right", "TSLQT", (piv, j, k), refl)

    def tsmlq(self, piv: int, j: int, k: int, i: int) -> None:
        tiles = self._tiles
        refl = self._lq_pair[piv, j, k]
        tiles[i, piv], tiles[i, j] = lqk.tsmlq(refl, tiles[i, piv], tiles[i, j])

    def ttlqt(self, piv: int, j: int, k: int) -> None:
        tiles = self._tiles
        tiles[k, piv], tiles[k, j], refl = lqk.ttlqt(tiles[k, piv], tiles[k, j], self.ib)
        self._lq_pair[piv, j, k] = refl
        self._log("right", "TTLQT", (piv, j, k), refl)

    def ttmlq(self, piv: int, j: int, k: int, i: int) -> None:
        tiles = self._tiles
        refl = self._lq_pair[piv, j, k]
        tiles[i, piv], tiles[i, j] = lqk.ttmlq(refl, tiles[i, piv], tiles[i, j])
