"""Versioned model references: ``model_id@version``.

A :class:`ModelRef` names a model *lineage* plus a version within it —
``"climate@2"`` pins version 2, ``"climate@latest"`` (or just
``"climate"``) floats with whatever the version registry currently
serves.  Every serving entry point that historically took a bare
``model_id: str`` (:meth:`ImputationService.impute`/``submit``,
:meth:`Gateway.submit`, :meth:`ClusterRouter.submit`,
``StreamingService.open_stream(warm_start=...)``) accepts either a
``ModelRef`` or a string; :meth:`ModelRef.parse` is the one rule, and a
bare string means ``@latest``.

Refs never reach the model store or the wire: the façade resolves them to
a *concrete* store id first (``"climate"`` for version 1, ``"climate.v2"``
for version 2, ...) via :class:`repro.api.versioning.VersionRegistry`, so
stores, shards and journals keep operating on plain validated ids.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Union

from repro.exceptions import ValidationError

__all__ = ["LATEST", "ModelRef", "check_model_id"]

#: floating version selector: "whatever the lineage currently serves"
LATEST = "latest"

#: model ids become file names inside the model store, so they must not be
#: able to escape it (no separators, no leading dots).  ``@`` is excluded
#: on purpose: it is the ref syntax, never part of a concrete id.
_MODEL_ID_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


# repro-lint: allow[model-ref]
def check_model_id(model_id: str, label: str = "model_id") -> str:
    """Reject ids that could traverse outside the model store directory."""
    if not isinstance(model_id, str) or \
            not _MODEL_ID_PATTERN.fullmatch(model_id):
        raise ValidationError(
            f"{label} must match {_MODEL_ID_PATTERN.pattern} (letters, "
            f"digits, '.', '_', '-'; no path separators), got {model_id!r}")
    return model_id


@dataclass(frozen=True)
class ModelRef:
    """A model lineage id plus a version selector.

    ``version`` is a positive integer or :data:`LATEST`.  Instances are
    frozen and hashable, so they can key batching groups the same way the
    legacy strings did.
    """

    model_id: str
    version: Union[int, str] = LATEST

    def __post_init__(self) -> None:
        check_model_id(self.model_id, "ModelRef.model_id")
        if self.version != LATEST:
            if not isinstance(self.version, int) or \
                    isinstance(self.version, bool) or self.version < 1:
                raise ValidationError(
                    f"ModelRef.version must be a positive int or "
                    f"{LATEST!r}, got {self.version!r}")

    # -- construction ---------------------------------------------------- #
    @classmethod
    # repro-lint: allow[model-ref]
    def latest(cls, model_id: str) -> "ModelRef":
        """The floating ref for a lineage (``model_id@latest``)."""
        return cls(model_id, LATEST)

    @classmethod
    def parse(cls, value: Union["ModelRef", str]) -> "ModelRef":
        """Accepts a ``ModelRef``, ``"m"``, ``"m@3"`` or ``"m@latest"``.

        A bare string means ``@latest`` — exactly what the historical
        ``model_id: str`` convention meant implicitly.
        """
        if isinstance(value, ModelRef):
            return value
        if not isinstance(value, str) or not value.strip():
            raise ValidationError(
                "model reference must be a ModelRef or a non-empty string, "
                f"got {value!r}")
        base, sep, version = value.partition("@")
        if not sep:
            return cls(base, LATEST)
        if version == LATEST:
            return cls(base, LATEST)
        if not version.isdigit() or int(version) < 1:
            raise ValidationError(
                f"model reference version must be a positive integer or "
                f"{LATEST!r}, got {value!r}")
        return cls(base, int(version))

    # -- rendering ------------------------------------------------------- #
    def __str__(self) -> str:
        return f"{self.model_id}@{self.version}"

    def wire_id(self) -> str:
        """Wire/legacy spelling: bare id for ``@latest``, ``id@N`` pinned.

        ``@latest`` renders as the bare id so requests built from refs
        stay byte-identical on the wire to the legacy string encoding.
        """
        if self.version == LATEST:
            return self.model_id
        return f"{self.model_id}@{self.version}"

    @property
    def pinned(self) -> bool:
        """True when this ref names an explicit version."""
        return self.version != LATEST
