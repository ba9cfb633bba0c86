"""Kernel executors.

The tiled algorithm drivers (:mod:`repro.algorithms.tiled_qr`,
:mod:`repro.algorithms.bidiag`, …) are written once, in terms of abstract
tile operations ("GEQRT tile (i, k)", "TSMQR tiles (piv, j) / (i, j) with
the reflectors of column k", …).  *Executors* give those operations a
meaning:

* :class:`NumericExecutor` applies the real Householder kernels to a
  :class:`~repro.tiles.matrix.TiledMatrix`, producing an actual
  factorization.  Besides the per-op methods the drivers call, it runs a
  whole group of independent ops of one kernel as one stacked kernel call
  (:meth:`NumericExecutor.run_group`), which is how
  :func:`repro.ir.replay` drives it, one (DAG level, kernel) group at a
  time;
* :class:`~repro.ir.recorder.ProgramRecorder` (defined with the IR)
  records each operation as an op with its read/write sets, producing the
  compiled :class:`~repro.ir.program.Program` used for critical-path
  analysis and runtime simulation.

This split guarantees that the DAG we analyse is exactly the DAG we
execute — both come from the same driver code path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from types import ModuleType
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.kernels import lq_kernels as lqk
from repro.kernels import qr_kernels as qrk
from repro.kernels.costs import KERNEL_LIST, KernelName
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


class _Access(NamedTuple):
    """What one tile kernel touches, by positions in its op's params."""

    #: Module the kernel function is looked up on, at call time.
    module: ModuleType
    #: ``(row, col)`` param positions of each tile argument, in order.
    tiles: Tuple[Tuple[int, int], ...]
    #: Executor attribute holding the reflector map it writes or reads.
    reflectors: str
    #: ``params[:key_len]`` keys that map.
    key_len: int
    #: Side logged for gesvd by a factor kernel; ``None`` for an update.
    side: Optional[str]


#: The tiles, reflector map and log side of each kernel's ops: the gather,
#: the scatter and the shape split of :meth:`NumericExecutor.run_group` all
#: read this one table.  The per-op methods below spell out the same
#: accesses by hand and stay the test oracle for it.
_ACCESS: Dict[KernelName, _Access] = {
    KernelName.GEQRT: _Access(qrk, ((0, 1),), "_qr_panel", 2, "left"),
    KernelName.UNMQR: _Access(qrk, ((0, 2),), "_qr_panel", 2, None),
    KernelName.TSQRT: _Access(qrk, ((0, 2), (1, 2)), "_qr_pair", 3, "left"),
    KernelName.TSMQR: _Access(qrk, ((0, 3), (1, 3)), "_qr_pair", 3, None),
    KernelName.TTQRT: _Access(qrk, ((0, 2), (1, 2)), "_qr_pair", 3, "left"),
    KernelName.TTMQR: _Access(qrk, ((0, 3), (1, 3)), "_qr_pair", 3, None),
    KernelName.GELQT: _Access(lqk, ((0, 1),), "_lq_panel", 2, "right"),
    KernelName.UNMLQ: _Access(lqk, ((2, 1),), "_lq_panel", 2, None),
    KernelName.TSLQT: _Access(lqk, ((2, 0), (2, 1)), "_lq_pair", 3, "right"),
    KernelName.TSMLQ: _Access(lqk, ((3, 0), (3, 1)), "_lq_pair", 3, None),
    KernelName.TTLQT: _Access(lqk, ((2, 0), (2, 1)), "_lq_pair", 3, "right"),
    KernelName.TTMLQ: _Access(lqk, ((3, 0), (3, 1)), "_lq_pair", 3, None),
}


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

    # -- stacked groups ------------------------------------------------- #
    def run_group(self, code: int, params: Sequence[Tuple[int, ...]]) -> None:
        """Run ops ``params`` of kernel ``code`` as stacked kernel calls.

        The ops must be independent, as the ops of one DAG level are
        (:meth:`~repro.ir.program.Program.level_groups`): every tile of the
        group is read before any is written back.  Each op keeps its own
        reflector (a view of the stacked one) and, for gesvd, its own
        transform-log entry, so the result is bitwise what the per-op
        methods give in any order of the ops.  Ops whose tiles differ in
        shape (a ragged last tile row or column) go to separate calls.
        """
        kernel = KERNEL_LIST[code]
        access = _ACCESS[kernel]
        for part in self._shape_classes(access, params):
            self._run_stacked(kernel.name, access, part)

    def _shape_classes(
        self, access: _Access, params: Sequence[Tuple[int, ...]]
    ) -> Iterable[Sequence[Tuple[int, ...]]]:
        """Split ``params`` by the shapes of the tiles each op touches.

        Tile shapes differ only in a ragged last tile row or column, so an
        even grid keeps the group whole.
        """
        layout = self.matrix.layout
        last_row = layout.p - 1 if layout.m % layout.nb else -1
        last_col = layout.q - 1 if layout.n % layout.nb else -1
        if last_row < 0 and last_col < 0:
            return (params,)
        classes: Dict[Tuple[Tuple[bool, bool], ...], List[Tuple[int, ...]]] = {}
        for op in params:
            key = tuple((op[r] == last_row, op[c] == last_col) for r, c in access.tiles)
            classes.setdefault(key, []).append(op)
        return classes.values()

    def _run_stacked(
        self, name: str, access: _Access, params: Sequence[Tuple[int, ...]]
    ) -> None:
        # Looked up on the kernel module at call time, as the per-op
        # methods do, so whatever wraps the module attribute sees each call.
        kernel = getattr(access.module, name.lower())
        keys = [[(op[r], op[c]) for op in params] for r, c in access.tiles]
        tiles = [self.matrix.gather(tile_keys) for tile_keys in keys]
        reflectors = getattr(self, access.reflectors)
        n = access.key_len
        if access.side is None:
            used = [reflectors[op[:n]] for op in params]
            first = used[0]
            if len({refl.kind for refl in used}) > 1:
                raise ValueError(f"{name} group mixes reflector kinds")
            stacked = type(first)(
                v=np.array([refl.v for refl in used]),
                t=np.array([refl.t for refl in used]),
                split=first.split,
                kind=first.kind,
            )
            out = kernel(stacked, *tiles)
            outs = out if isinstance(out, tuple) else (out,)
        else:
            *outs, made = kernel(*tiles)
            cls = type(made)
            for op, v, t in zip(params, made.v, made.t):
                refl = cls(v=v, t=t, split=made.split, kind=made.kind)
                reflectors[op[:n]] = refl
                self._log(access.side, name, op, refl)
        for tile_keys, stack in zip(keys, outs):
            self.matrix.scatter(tile_keys, stack)

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
