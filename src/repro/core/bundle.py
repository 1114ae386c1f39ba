"""The :class:`FileBundle` value type.

A *file bundle* is the set of files a job needs resident in the cache
simultaneously (Section 2 of the paper, "One File-Bundle at a Time").  Two
requests are the same request *type* exactly when their bundles are equal,
which is why :class:`FileBundle` is an immutable, hashable set wrapper — it
serves directly as the key of the request-history structure ``L(R)``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, KeysView, Mapping

from repro.errors import ConfigError, TypeContractError
from repro.types import FileId, SizeBytes

__all__ = ["FileBundle"]


class FileBundle:
    """An immutable, hashable set of file ids requested together.

    >>> b = FileBundle(["f2", "f1"])
    >>> b == FileBundle({"f1", "f2"})
    True
    >>> sorted(b)
    ['f1', 'f2']
    """

    __slots__ = ("_files", "_hash", "_ordered")

    def __init__(self, files: Iterable[FileId]):
        fs = frozenset(files)
        if not fs:
            raise ConfigError("a file bundle must contain at least one file")
        # repro: allow[RPR003] validation only; order picks which invalid
        # id is reported, and mixed-type members would make sorted() raise
        for f in fs:
            if not isinstance(f, str) or not f:
                raise TypeContractError(
                    f"file ids must be non-empty strings, got {f!r}"
                )
        self._files = fs
        self._hash = hash(fs)
        # Iteration must not leak the frozenset's hash-randomized order:
        # policies touch files in bundle order, so a PYTHONHASHSEED-dependent
        # order would make eviction tie-breaks differ across processes.
        self._ordered = tuple(sorted(fs))

    @property
    def files(self) -> frozenset[FileId]:
        """The underlying frozen set of file ids."""
        return self._files

    def __contains__(self, file_id: object) -> bool:
        return file_id in self._files

    def __iter__(self) -> Iterator[FileId]:
        return iter(self._ordered)

    def __len__(self) -> int:
        return len(self._files)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FileBundle):
            return self._files == other._files
        if isinstance(other, frozenset):
            return self._files == other
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __or__(self, other: "FileBundle") -> "FileBundle":
        return FileBundle(self._files | other._files)

    def __and__(self, other: "FileBundle") -> frozenset[FileId]:
        return self._files & other._files

    def __sub__(self, other: "FileBundle") -> frozenset[FileId]:
        return self._files - other._files

    def issubset(self, files: Iterable[FileId]) -> bool:
        """True when every file of the bundle is in ``files``."""
        if isinstance(files, (set, frozenset)):
            return self._files <= files
        return self._files <= set(files)

    def intersects(self, files: Iterable[FileId]) -> bool:
        """True when the bundle shares at least one file with ``files``."""
        if not isinstance(files, (set, frozenset, dict)):
            files = set(files)
        return any(f in files for f in self._files)

    def size_under(self, sizes: Mapping[FileId, SizeBytes]) -> SizeBytes:
        """Total bytes of the bundle under a file-size mapping ``s(F(r))``."""
        return sum(map(sizes.__getitem__, self._files))

    def missing_from(self, resident: Iterable[FileId]) -> frozenset[FileId]:
        """The subset of this bundle's files not in ``resident`` (a set or
        a dict keys view is not copied: the intersection walks the bundle)."""
        if not isinstance(resident, (set, frozenset, KeysView)):
            resident = set(resident)
        return self._files - (resident & self._files)

    def sorted_ids(self) -> tuple[FileId, ...]:
        """File ids in lexicographic order (stable canonical form)."""
        return tuple(sorted(self._files))

    def __repr__(self) -> str:
        inner = ",".join(self.sorted_ids())
        return f"FileBundle({{{inner}}})"
