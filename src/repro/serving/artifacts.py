"""Versioned on-disk model artifacts.

An artifact is a directory holding exactly two files::

    <model>/
      manifest.json    format + repro version, model kind/config, data
                       fingerprint, and the JSON-encoded state tree
      payload.npz      every numpy array of the state, losslessly

The split keeps the structural metadata human-readable (``cat
manifest.json``) while weights stay binary and compact.  ``manifest.json``
carries ``format_version`` so future layouts can evolve: readers refuse
artifacts written by a *newer* format instead of mis-parsing them.

:func:`save_model` / :func:`load_model` round-trip any class registered
with :mod:`repro.serving.state` — ``UADBooster``, ``FoldEnsemble``, and
every detector in :mod:`repro.detectors.registry` — such
that ``decision_scores``/``predict`` outputs are bit-identical before and
after the trip.  :class:`ModelStore` maps model ids onto a directory of
artifacts for the scoring service.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
import zipfile
import zlib
from pathlib import Path

import numpy as np

import repro
from repro.api.spec import SpecError, to_spec
from repro.runtime import snapshot as _runtime_snapshot
from repro.serving.state import STATEFUL_CLASSES, decode, encode
from repro.utils.fingerprint import content_sha256

__all__ = [
    "ArtifactError",
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "ModelStore",
    "data_fingerprint",
    "is_artifact_dir",
    "load_model",
    "read_manifest",
    "save_model",
]

FORMAT_NAME = "repro-model"
FORMAT_VERSION = 1
MANIFEST_NAME = "manifest.json"
PAYLOAD_NAME = "payload.npz"


class ArtifactError(RuntimeError):
    """A model artifact is missing, corrupt, or incompatible."""


def data_fingerprint(X) -> dict:
    """Shape/dtype/sha256 fingerprint of the training data.

    Stored in the manifest so a serving deployment can verify that the
    data a model is asked to score matches what it was fitted on (same
    feature count, or byte-identical matrix for exact reproduction).
    """
    arr = np.ascontiguousarray(X)
    return {
        "shape": list(arr.shape),
        "dtype": arr.dtype.str,
        "sha256": content_sha256(arr),
    }


def _config_summary(model) -> dict:
    """Constructor arguments still readable off the instance, for humans.

    Best-effort: parameters whose same-named attribute holds a JSON
    primitive are recorded verbatim, everything else as ``repr``.  The
    authoritative state lives in the encoded tree — this block only makes
    ``manifest.json`` self-describing.
    """
    summary = {}
    try:
        params = inspect.signature(type(model).__init__).parameters
    except (TypeError, ValueError):
        return summary
    for name in params:
        if name == "self" or not hasattr(model, name):
            continue
        value = getattr(model, name)
        if value is None or isinstance(value, (bool, int, float, str)):
            summary[name] = value
        else:
            summary[name] = repr(value)
    return summary


def is_artifact_dir(path) -> bool:
    """True if ``path`` is a directory containing a model manifest."""
    path = Path(path)
    return path.is_dir() and (path / MANIFEST_NAME).is_file()


def save_model(model, path, *, data=None, extra=None) -> Path:
    """Write ``model`` as a versioned artifact directory at ``path``.

    Parameters
    ----------
    model : registered stateful instance
        A fitted (or unfitted) ``UADBooster``, ``FoldEnsemble``, or any
        registry detector.
    path : str or Path
        Artifact directory; created (parents included) if missing.
    data : array-like, optional
        The training matrix; when given, its fingerprint is recorded in
        the manifest.
    extra : dict, optional
        Free-form JSON-able metadata (e.g. dataset name, metrics) stored
        under the manifest's ``extra`` key.
    """
    kind = type(model).__name__
    if STATEFUL_CLASSES.get(kind) is not type(model):
        raise ArtifactError(
            f"cannot save unregistered model type {kind!r}; register it "
            f"with repro.serving.state.register_stateful"
        )
    arrays: dict = {}
    try:
        tree = encode(model, arrays)
    except TypeError as exc:
        raise ArtifactError(f"model state is not serialisable: {exc}") from exc
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    # Write-to-temp + rename keeps each file atomic, and the payload
    # checksum recorded in the manifest ties the two files together: a
    # save interrupted between the renames leaves a manifest whose
    # checksum no longer matches the payload, which load_model rejects
    # instead of silently mixing old state with new weights.
    payload_tmp = path / (PAYLOAD_NAME + ".tmp")
    with open(payload_tmp, "wb") as handle:  # keep numpy off suffix games
        np.savez_compressed(handle, **arrays)
    payload_sha256 = hashlib.sha256(payload_tmp.read_bytes()).hexdigest()
    # The producing spec makes the artifact self-reproducing: feed it back
    # through repro.api.build_spec (or `repro boost --spec`) to rebuild an
    # unfitted twin of the saved model.  Best-effort: models configured
    # with non-JSON-able values (e.g. a live Generator) record null.
    try:
        spec = to_spec(model)
    except SpecError:
        spec = None
    manifest = {
        "format": FORMAT_NAME,
        "format_version": FORMAT_VERSION,
        "repro_version": repro.__version__,
        "kind": kind,
        "created_unix": time.time(),
        "config": _config_summary(model),
        "spec": spec,
        # The execution configuration the model was produced under
        # (explicit RunContext fields plus their resolution): budgets
        # and caches never change scores, but a serving deployment can
        # now state exactly how an artifact was made.
        "runtime": _runtime_snapshot(),
        "data_fingerprint": None if data is None else data_fingerprint(data),
        "n_arrays": len(arrays),
        "payload_sha256": payload_sha256,
        "state": tree,
    }
    if extra is not None:
        manifest["extra"] = extra
    payload_tmp.replace(path / PAYLOAD_NAME)
    manifest_tmp = path / (MANIFEST_NAME + ".tmp")
    with open(manifest_tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=1)
        handle.write("\n")
    manifest_tmp.replace(path / MANIFEST_NAME)
    return path


def read_manifest(path) -> dict:
    """Parse and validate an artifact's ``manifest.json``."""
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise ArtifactError(f"no model artifact at {path} "
                            f"(missing {MANIFEST_NAME})")
    try:
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ArtifactError(f"corrupt manifest at {manifest_path}: "
                            f"{exc}") from exc
    if not isinstance(manifest, dict) \
            or manifest.get("format") != FORMAT_NAME:
        raise ArtifactError(
            f"{manifest_path} is not a {FORMAT_NAME} manifest"
        )
    version = manifest.get("format_version")
    if not isinstance(version, int):
        raise ArtifactError(f"{manifest_path} has no usable format_version")
    if version > FORMAT_VERSION:
        raise ArtifactError(
            f"artifact format v{version} is newer than this repro "
            f"({repro.__version__}) understands (v{FORMAT_VERSION}); "
            f"upgrade repro to load it"
        )
    for key in ("kind", "state"):
        if key not in manifest:
            raise ArtifactError(f"{manifest_path} is missing {key!r}")
    return manifest


def load_model(path, *, expected_kind: str | None = None):
    """Load a model previously written by :func:`save_model`.

    Raises :class:`ArtifactError` on missing/corrupt files, a
    forward-incompatible ``format_version``, an unregistered ``kind``, or
    (when ``expected_kind`` is given) a kind mismatch.
    """
    path = Path(path)
    manifest = read_manifest(path)
    kind = manifest["kind"]
    if expected_kind is not None and kind != expected_kind:
        raise ArtifactError(
            f"artifact at {path} holds a {kind}, expected {expected_kind}"
        )
    if kind not in STATEFUL_CLASSES:
        raise ArtifactError(
            f"artifact kind {kind!r} is not a registered model class"
        )
    payload_path = path / PAYLOAD_NAME
    if not payload_path.is_file():
        raise ArtifactError(f"artifact at {path} is missing {PAYLOAD_NAME}")
    recorded_sha = manifest.get("payload_sha256")
    if recorded_sha is not None:
        actual_sha = hashlib.sha256(payload_path.read_bytes()).hexdigest()
        if actual_sha != recorded_sha:
            raise ArtifactError(
                f"payload checksum mismatch at {payload_path}: the "
                f"artifact is corrupt or a save was interrupted"
            )
    try:
        with np.load(payload_path, allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (OSError, ValueError, KeyError, zipfile.BadZipFile,
            zlib.error) as exc:
        raise ArtifactError(f"corrupt payload at {payload_path}: "
                            f"{exc}") from exc
    try:
        model = decode(manifest["state"], arrays)
    except (KeyError, TypeError, ValueError) as exc:
        raise ArtifactError(
            f"artifact at {path} failed to decode: {exc}"
        ) from exc
    if type(model).__name__ != kind:
        raise ArtifactError(
            f"artifact at {path} decoded to {type(model).__name__}, "
            f"manifest claims {kind}"
        )
    return model


class ModelStore:
    """Model ids mapped onto a directory of artifacts.

    ``root`` may be either a *single* artifact directory (served under its
    own directory name — the ``repro boost --save model/`` +
    ``repro serve model/`` path) or a directory whose immediate
    subdirectories are artifacts (a multi-model registry).
    """

    def __init__(self, root):
        self.root = Path(root)
        if not self.root.is_dir():
            raise ArtifactError(f"model store root {self.root} "
                                f"is not a directory")

    @property
    def is_single_model(self) -> bool:
        return is_artifact_dir(self.root)

    def ids(self) -> list:
        """Sorted model ids available in the store."""
        if self.is_single_model:
            return [self.root.resolve().name or "model"]
        return sorted(
            entry.name for entry in self.root.iterdir()
            if is_artifact_dir(entry)
        )

    def path_for(self, model_id: str) -> Path:
        """Artifact directory for ``model_id`` (no path traversal)."""
        if self.is_single_model:
            if model_id != self.ids()[0]:
                raise KeyError(f"unknown model {model_id!r}; this store "
                               f"serves {self.ids()}")
            return self.root
        if not model_id or "/" in model_id or "\\" in model_id \
                or model_id in (".", ".."):
            raise KeyError(f"invalid model id {model_id!r}")
        path = self.root / model_id
        if not is_artifact_dir(path):
            raise KeyError(f"unknown model {model_id!r}; "
                           f"available: {self.ids()}")
        return path

    def manifest(self, model_id: str) -> dict:
        return read_manifest(self.path_for(model_id))

    def load(self, model_id: str):
        # Chaos hook: an "error" plan entry raises a retryable
        # InjectedFault here (a transient storage read failure); no-op
        # unless a fault plan is active.
        from repro.resilience.faults import inject
        inject("store.load", model=model_id)
        return load_model(self.path_for(model_id))

    def save(self, model, model_id: str, **kwargs) -> Path:
        """Save ``model`` into the store under ``model_id``."""
        if self.is_single_model:
            raise ArtifactError(
                "cannot add models to a single-artifact store"
            )
        if not model_id or "/" in model_id or "\\" in model_id \
                or model_id in (".", ".."):
            raise ArtifactError(f"invalid model id {model_id!r}")
        return save_model(model, self.root / model_id, **kwargs)

    def __repr__(self) -> str:
        return f"ModelStore({str(self.root)!r}, models={self.ids()})"
