"""Error taxonomy shared across the package.

Every operation that rejects an input raises a subclass of TendistError so
callers (and the CLI) can distinguish configuration mistakes from bugs.
"""

from __future__ import annotations


class TendistError(Exception):
    """Base class for all package errors."""


class ConfigError(TendistError):
    """Invalid run configuration (CLI exit code 2)."""


class VerifyFail(TendistError):
    """Simulated output disagrees with the sequential oracle (CLI exit code 1)."""


# statement construction

class ExtentMismatch(TendistError):
    """An index variable is used against dimensions of different extents."""


class ArityMismatch(TendistError):
    """An access supplies the wrong number of indices for its tensor."""


class NonAffineAccess(TendistError):
    """An access index is not a plain index variable."""


class MissingInput(TendistError):
    """Evaluation asked for a tensor value that was not supplied."""


# machine construction

class EmptyGrid(TendistError):
    """A machine level has no dimensions or a non-positive extent."""


# distribution validation

class RankMismatch(TendistError):
    """Distribution side lengths disagree with tensor order or machine dims."""


class DuplicateName(TendistError):
    """A dimension name appears twice on one side of a distribution."""


class UnboundMachineName(TendistError):
    """A machine-side name does not appear on the tensor side."""


class OutOfBounds(TendistError):
    """A coordinate lies outside the tensor or machine extents."""


class FixedOutOfRange(TendistError):
    """A fixed machine coordinate exceeds that dimension's extent."""


# scheduling

class UnknownVar(TendistError):
    """A command names a loop variable the statement does not bind."""


class NonFreshVar(TendistError):
    """A command introduces a variable name that is already in use."""


class NotContiguousNest(TendistError):
    """reorder targets are not a directly nested loop chain."""


class NotPermutation(TendistError):
    """reorder arguments are not a permutation of the targeted chain."""


class DimCountMismatch(TendistError):
    """Compound distribute targets do not match the machine dims."""


class UnknownTensor(TendistError):
    """A command names a tensor the statement does not access."""


class IBelowT(TendistError):
    """rotate offsets must be bound by loops enclosing the rotated loop."""


# simulation

class UnboundVariable(TendistError):
    """An access variable is neither loop-bound nor defined by a relation."""


class MissingDistribution(TendistError):
    """An accessed tensor has no distribution."""


class GridMismatch(TendistError):
    """Launch domain does not match the machine dimensions."""


class WriteToReplica(TendistError):
    """Plain write into a replicated distribution."""


class OverlappingWrites(TendistError):
    """Write rectangles of two launch points intersect."""


class OOBAccess(TendistError):
    """A resolved coordinate fell outside its tensor (interpreter assertion)."""


# algorithm preconditions

class NonSquareGrid(TendistError):
    """Algorithm requires gx == gy."""


class NonCubeGrid(TendistError):
    """Algorithm requires gx == gy == gz."""


class BadGrid(TendistError):
    """Machine shape unsuitable for the requested algorithm."""
