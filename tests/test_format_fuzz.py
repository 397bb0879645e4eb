"""Every binary format, truncated at each field boundary, with a header
field corrupted or with a NaN in an array, is a data error through the CLI
(exit 2) whose message begins with the damaged file's path, never an
uncaught exception."""

import shutil
import struct
from io import BytesIO
from unittest import mock

import numpy as np
import pytest

from proscore import corpus, dnf, flow, formats, gmm, ivector, regress
from proscore.cli import main
from proscore.corpus import load_corpus, save_corpus, synth_corpus

from conftest import TINY_SYNTH

D = TINY_SYNTH.feature_dim


class _Recorder(BytesIO):
    """A stream that records the offset at which each write ends."""

    def __init__(self):
        super().__init__()
        self.ends = []

    def write(self, data):
        n = super().write(data)
        self.ends.append(self.tell())
        return n


def _image(write, obj):
    """(bytes, field boundaries, [(offset, kind)] of the scalar fields and
    of the first element of each array) of what `write(f, obj)` writes.
    Each write call is one field."""
    f = _Recorder()
    scalars = []

    def spy(kind, real):
        def record(stream, value):
            if np.size(value):  # an empty array has no element to corrupt
                scalars.append((stream.tell(), kind))
            real(stream, value)
        return record

    with mock.patch.multiple(formats,
                             write_magic=spy("magic", formats.write_magic),
                             write_u32=spy("u32", formats.write_u32),
                             write_f64=spy("f64", formats.write_f64),
                             write_array=spy("array", formats.write_array)):
        write(f, obj)
    data = f.getvalue()
    return data, [0] + f.ends[:-1], scalars


def _corruptions(data, scalars):
    """(name, bytes) for each bad value of each scalar field: another magic,
    a count or id one too large or 2^32 - 1 (neither fits the payload that
    follows, nor names a kernel or version), and a NaN real or array
    element."""
    for offset, kind in scalars:
        if kind == "magic":
            bad = [b"XXXX"]
        elif kind == "u32":
            value = struct.unpack_from("<I", data, offset)[0]
            bad = [struct.pack("<I", (value + 1) % 2 ** 32),
                   struct.pack("<I", 2 ** 32 - 1)]
        else:
            bad = [struct.pack("<d", float("nan"))]
        for raw in bad:
            yield (f"{kind}@{offset}={raw.hex()}",
                   data[:offset] + raw + data[offset + len(raw):])


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fuzz_corpus")
    save_corpus(synth_corpus(TINY_SYNTH)[0], out)
    return out


def _ubm():
    return gmm.GmmModel(np.array([0.4, 0.6]), np.arange(2 * D).reshape(2, D),
                        np.full((2, D), 1.5))


def _flow():
    return flow.build_flow(D, num_layers=2, width=4, seed=1)


def _svr():
    X = np.random.default_rng(0).standard_normal((8, 2))
    return regress.svr_train(X, X[:, 0] - X[:, 1])


def _embeddings(path, manifest):
    ids = sorted(load_corpus(manifest).features)
    path.write_text("".join(f"{uid}\t{i % 3}\t{i % 5}\n"
                            for i, uid in enumerate(ids)))
    return str(path)


MODELS = {
    "PGMM": (gmm.write_gmm, _ubm, "score"),
    "PIVM": (ivector.write_ivector_model,
             lambda: ivector.IVectorModel(_ubm(), np.ones((2, D, 2))), "embed"),
    "PNF1": (flow.write_flow, _flow, "embed"),
    "PDNF": (dnf.write_dnf, lambda: dnf.DnfModel(_flow(), np.zeros((3, D))),
             "embed"),
    "PSVR": (regress.write_svr, _svr, "svr"),
}
CORPUS_FILES = {
    "PRF1-features": ("features", ".feat", corpus._write_frames,
                      lambda c, uid: c.features[uid].frames),
    "PRF1-posteriors": ("posteriors", ".post", corpus._write_posteriorgram,
                        lambda c, uid: c.posteriors[uid]),
}


def _fuzz(path, data, boundaries, scalars, argv, capsys):
    """Every truncated and corrupted image of `data` at `path` must make
    `argv` exit 2 with a data error naming `path`; the intact one must exit
    0. Returns the failures and the number of damaged images."""
    path.write_bytes(data)
    assert main(argv) == 0
    cases = [(f"truncated@{end}", data[:end]) for end in boundaries]
    cases += list(_corruptions(data, scalars))
    failures = []
    capsys.readouterr()
    for name, raw in cases:
        path.write_bytes(raw)
        try:
            rc = main(argv)
        except Exception as exc:  # the fault this test is for
            failures.append((name, repr(exc)))
            continue
        err = capsys.readouterr().err
        if rc != 2 or not err.startswith(f"data error: {path}: "):
            failures.append((name, f"exit {rc}", err))
    path.write_bytes(data)
    return failures, len(cases)


@pytest.mark.parametrize("magic", sorted(MODELS))
def test_damaged_model_file_is_a_data_error(corpus_dir, tmp_path, capsys,
                                            magic):
    write, make, command = MODELS[magic]
    data, boundaries, scalars = _image(write, make())
    assert data[:4] == magic.encode()
    path = tmp_path / f"model.{magic.lower()}"
    m = ["--manifest", str(corpus_dir / "manifest.tsv")]
    out = ["--out", str(tmp_path / "out.tsv")]
    if command == "svr":
        argv = ["score", *m, *out, "--svr", str(path), "--embeddings",
                _embeddings(tmp_path / "e.tsv", m[1])]
    else:
        argv = [command, *m, *out, "--model", str(path)]
    failures, count = _fuzz(path, data, boundaries, scalars, argv, capsys)
    assert count > len(boundaries) > 3
    assert any(kind == "array" for _, kind in scalars)
    assert not failures, failures


@pytest.mark.parametrize("kind", sorted(CORPUS_FILES))
def test_damaged_corpus_file_is_a_data_error(corpus_dir, tmp_path, capsys,
                                             kind):
    sub, suffix, write, payload = CORPUS_FILES[kind]
    root = tmp_path / "corpus"
    shutil.copytree(corpus_dir, root)
    manifest = root / "manifest.tsv"
    c = load_corpus(manifest)
    uid = sorted(c.features)[0]
    data, boundaries, scalars = _image(write, payload(c, uid))
    path = root / sub / f"{uid}{suffix}"
    assert path.read_bytes() == data
    failures, _ = _fuzz(path, data, boundaries, scalars,
                        ["score", "--manifest", str(manifest), "--gop",
                         "--out", str(tmp_path / "out.tsv")], capsys)
    assert any(kind == "array" for _, kind in scalars)
    assert not failures, failures


def test_model_invariant_on_load_names_the_file(corpus_dir, tmp_path, capsys):
    """A PGMM whose weights are not a simplex fails its model's own check
    while it is read, and the message names the file."""
    path = tmp_path / "g.pgmm"
    data, _, _ = _image(gmm.write_gmm, _ubm())
    weights = 16  # magic, version, K, D
    path.write_bytes(data[:weights] + struct.pack("<d", 0.9) + data[weights + 8:])
    assert main(["score", "--manifest", str(corpus_dir / "manifest.tsv"),
                 "--model", str(path), "--out", str(tmp_path / "out.tsv")]) == 2
    assert capsys.readouterr().err == (
        f"data error: {path}: mixture weights must be a simplex\n")
