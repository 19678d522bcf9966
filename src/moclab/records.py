"""Run records and checkpoint IO shared by the time-dependent solvers.

A solver run produces a :class:`RunRecord`: named diagnostic series sampled
along the run, a termination code, a verdict slot, and a metadata dict that
carries scalar facts about the run (initial norms, grid size, multiplier
label, the stages of its run loop).  The record is the object that crosses
from the solvers to verdict logic and persistence.

Verdicts are plain strings so they serialize without ceremony.  A fresh
record is UNRESOLVED.  A Burgers run gets its verdict from
``burgers.detect_blowup``; a 2-D run promotes its own record to REGULAR
when it completed resolved (and, with a monitored modulus, obeyed it),
and ``sqg_euler.euler_regularity_experiment`` overwrites the verdict of
the P-Euler run it makes.

Checkpoints are raw spectral dumps (``numpy.save`` of the unnormalized
spectrum) next to a JSON sidecar holding the time stamp and enough shape
information to rebuild the field.  Binary for the payload, JSON for the
header, so a checkpoint survives inspection with standard tools.

Every report and run record converts to plain data through one function,
:func:`to_dict`, and named columns to CSV through one, :func:`to_csv`.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .fields import ScalarField1D, ScalarField2D

REGULAR = "REGULAR"
BLOWUP = "BLOWUP"
UNRESOLVED = "UNRESOLVED"

VERDICTS = (REGULAR, BLOWUP, UNRESOLVED)

# Attributes, fields or properties, that state a report's verdict; to_dict
# adds every one a report has, so each dict carries its verdict.
VERDICT_KEYS = ("verdict", "reason", "passed", "passes", "obeys", "ok",
                "worst_xi", "worst_margin")


@dataclass
class RunRecord:
    """Diagnostic series and outcome of a single solver run.

    Parameters
    ----------
    equation : str
        Which solver produced the record ("burgers", "sqg", "p_euler").
    columns : tuple of str
        Series names in persistence order; first column is always "t".
    series : dict
        Column name to 1-D float array, all of equal length.
    verdict : str
        One of REGULAR / BLOWUP / UNRESOLVED; UNRESOLVED until a verdict
        is set (the module docstring says where).
    termination : str
        Why the run stopped: "completed", "gradient-threshold",
        "dt-floor", or "spectral-tail".
    meta : dict
        Scalar facts about the run (JSON-serializable).
    wall_time : float
        Seconds spent inside the solver loop.
    final_state : field object or None
        Terminal solver state for restarts and pointwise checks; never
        serialized with the record (checkpoints carry it instead).
    """

    equation: str
    columns: tuple
    series: dict
    verdict: str = UNRESOLVED
    termination: str = "completed"
    meta: dict = field(default_factory=dict)
    wall_time: float = 0.0
    final_state: object = None

    def __post_init__(self):
        if self.columns and self.columns[0] != "t":
            raise ValueError("first series column must be 't'")
        lengths = {len(self.series[c]) for c in self.columns}
        if len(lengths) > 1:
            raise ValueError("series columns have unequal lengths")
        self.series = {c: np.asarray(self.series[c], dtype=float)
                       for c in self.columns}

    def __len__(self):
        return len(self.series[self.columns[0]]) if self.columns else 0

    def __getitem__(self, name):
        return self.series[name]

    @property
    def t(self):
        return self.series["t"]

def to_dict(report):
    """Plain data of a report dataclass or run record, which
    ``json.dumps(..., allow_nan=False)`` accepts.

    - arrays and tuples become lists, numpy scalars Python scalars;
    - NaN and +-inf become None;
    - nested reports become dicts, each with its ``VERDICT_KEYS``;
    - an object with its own ``to_dict`` (a symbol, a modulus member, a
      multiplier) becomes that dict, whose keys its loaders read back;
    - live solver state, a ``ScalarField1D``/``ScalarField2D`` such as
      ``RunRecord.final_state`` or ``DesignReport.field``, is left out:
      checkpoints carry it.

    Any other value raises a TypeError that names the field.
    """
    return _plain(report, type(report).__name__)


def _plain(value, where):
    if hasattr(value, "to_dict"):
        return _plain(value.to_dict(), where)
    if is_dataclass(value):
        out = {}
        for f in fields(value):
            v = getattr(value, f.name)
            if not isinstance(v, (ScalarField1D, ScalarField2D)):
                out[f.name] = _plain(v, f"{where}.{f.name}")
        for key in VERDICT_KEYS:
            if key not in out and hasattr(value, key):
                out[key] = _plain(getattr(value, key), f"{where}.{key}")
        return out
    if isinstance(value, dict):
        return {k: _plain(v, f"{where}[{k!r}]") for k, v in value.items()}
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [_plain(v, f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if value is None or isinstance(value, (str, int)):
        return value
    raise TypeError(f"{where}: cannot put a {type(value).__name__} in a "
                    "report dict")


def to_csv(columns):
    """CSV text of named columns of equal length, e.g. ``RunRecord.series``.

    Floats are written with ``repr``, so they read back bitwise.
    """
    names = list(columns)
    cols = [np.asarray(columns[c]).tolist() for c in names]
    if len({len(c) for c in cols}) > 1:
        raise ValueError("columns have unequal lengths")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(names)
    writer.writerows(zip(*cols))
    return buf.getvalue()


def _atomic_bytes(path, payload):
    # Write-to-temp-and-rename keeps partially written files invisible.
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, obj):
    _atomic_bytes(path, (json.dumps(obj, indent=2, sort_keys=True) + "\n")
                  .encode("utf-8"))


def save_checkpoint(path, fld, t, meta=None):
    """Dump a field's spectrum to ``path`` plus a JSON sidecar.

    ``path`` should carry a ``.npy`` suffix; the sidecar lands at
    ``path + ".json"``.  Works for 1-D and 2-D fields.
    """
    path = os.fspath(path)
    buf = io.BytesIO()
    np.save(buf, fld.spec)
    _atomic_bytes(path, buf.getvalue())
    kind = "2d" if isinstance(fld, ScalarField2D) else "1d"
    header = {
        "kind": kind,
        "shape": list(fld.values.shape),
        "t": float(t),
        "meta": meta or {},
    }
    write_json_atomic(path + ".json", header)


def load_checkpoint(path):
    """Rebuild (field, t, meta) from a checkpoint written by save_checkpoint."""
    path = os.fspath(path)
    with open(path + ".json") as fh:
        header = json.load(fh)
    with open(path, "rb") as fh:
        spec = np.load(fh)
    if header["kind"] == "2d":
        n0, _ = header["shape"]
        fld = ScalarField2D.from_spectrum(spec, n0)
    else:
        (n,) = header["shape"]
        fld = ScalarField1D.from_spectrum(spec, n)
    return fld, header["t"], header["meta"]
