"""Byte-exact write -> read -> write round trips for every binary format."""

from io import BytesIO

import numpy as np
import pytest

from proscore import dnf, flow, formats, gmm, ivector, regress
from proscore.corpus import (FeatureSequence, PosteriorGram,
                             read_feature_file, read_posteriorgram_file,
                             write_feature_file, write_posteriorgram_file)
from proscore.formats import DataError
from proscore.pipeline import load_model


def _rng():
    return np.random.default_rng(42)


def make_gmm():
    rng = _rng()
    w = rng.dirichlet(np.ones(3))
    return gmm.GmmModel(w, rng.standard_normal((3, 4)),
                        rng.uniform(0.5, 2.0, (3, 4)))


def make_ivector():
    rng = _rng()
    return ivector.IVectorModel(make_gmm(), 0.3 * rng.standard_normal((3, 4, 2)))


def make_flow():
    m = flow.build_flow(4, num_layers=3, width=8, seed=1)
    rng = _rng()
    for p in m.params():
        p += 0.2 * rng.standard_normal(p.shape)
    return m


def make_dnf():
    return dnf.DnfModel(make_flow(), _rng().standard_normal((5, 4)))


def make_svr():
    rng = _rng()
    X = rng.standard_normal((12, 3))
    y = X[:, 0] + 0.1 * rng.standard_normal(12)
    return regress.svr_train(X, y, regress.SvrParams(C=1.0, epsilon=0.05))


def test_feature_file_round_trip(tmp_path):
    fs = FeatureSequence("u", _rng().standard_normal((7, 5)))
    path = tmp_path / "u.feat"
    write_feature_file(path, fs)
    first = path.read_bytes()
    back = read_feature_file(path, "u")
    np.testing.assert_array_equal(back.frames, fs.frames)
    write_feature_file(path, back)
    assert path.read_bytes() == first


def test_posteriorgram_file_round_trip(tmp_path):
    post = _rng().dirichlet(np.ones(4), size=6)
    pg = PosteriorGram("u", post, ("aa", "iy", "sil", "zh"))
    path = tmp_path / "u.post"
    write_posteriorgram_file(path, pg)
    first = path.read_bytes()
    back = read_posteriorgram_file(path, "u")
    np.testing.assert_array_equal(back.post, pg.post)
    assert back.phone_table == pg.phone_table
    write_posteriorgram_file(path, back)
    assert path.read_bytes() == first


@pytest.mark.parametrize("make,save,load", [
    (make_gmm, gmm.save_gmm, gmm.load_gmm),
    (make_ivector, ivector.save_ivector_model, ivector.load_ivector_model),
    (make_flow, flow.save_flow, flow.load_flow),
    (make_dnf, dnf.save_dnf, dnf.load_dnf),
    (make_svr, regress.save_svr, regress.load_svr),
], ids=["gmm", "ivector", "flow", "dnf", "svr"])
def test_model_round_trip(tmp_path, make, save, load):
    model = make()
    path = tmp_path / "model.bin"
    save(path, model)
    first = path.read_bytes()
    save(path, load(path))
    assert path.read_bytes() == first


def test_loaded_models_behave_identically(tmp_path):
    rng = _rng()
    batch = rng.standard_normal((5, 4))

    m = make_gmm()
    gmm.save_gmm(tmp_path / "m.pgmm", m)
    back = gmm.load_gmm(tmp_path / "m.pgmm")
    fs = FeatureSequence("probe", batch)
    np.testing.assert_array_equal(
        gmm.gmm_loglik(m, fs)[0], gmm.gmm_loglik(back, fs)[0])

    f = make_flow()
    flow.save_flow(tmp_path / "m.pnf1", f)
    fback = flow.load_flow(tmp_path / "m.pnf1")
    np.testing.assert_array_equal(flow.flow_logprob(f, batch),
                                  flow.flow_logprob(fback, batch))

    s = make_svr()
    regress.save_svr(tmp_path / "m.psvr", s)
    sback = regress.load_svr(tmp_path / "m.psvr")
    probe = rng.standard_normal((4, 3))
    np.testing.assert_array_equal(regress.svr_predict_batch(s, probe),
                                  regress.svr_predict_batch(sback, probe))


def test_bad_magic_and_truncation():
    buf = BytesIO()
    gmm.write_gmm(buf, make_gmm())
    payload = buf.getvalue()
    with pytest.raises(DataError, match="bad magic"):
        gmm.read_gmm(BytesIO(b"XXXX" + payload[4:]))
    with pytest.raises(DataError, match="truncated"):
        gmm.read_gmm(BytesIO(payload[:-4]))


def test_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "m.pgmm"
    gmm.save_gmm(path, make_gmm())
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        gmm.load_gmm(path)


def test_primitive_round_trips():
    buf = BytesIO()
    formats.write_u32(buf, 7)
    formats.write_f64(buf, -0.25)
    formats.write_string(buf, "phone/ä")
    buf.seek(0)
    assert formats.read_u32(buf) == 7
    assert formats.read_f64(buf) == -0.25
    assert formats.read_string(buf) == "phone/ä"
    assert buf.read() == b""


@pytest.mark.parametrize("make,save,inner,save_inner,header", [
    (make_ivector, ivector.save_ivector_model, lambda m: m.ubm, gmm.save_gmm, 12),
    (make_dnf, dnf.save_dnf, lambda m: m.backbone, flow.save_flow, 8),
], ids=["ivector", "dnf"])
def test_nested_model_written_inline(tmp_path, make, save, inner, save_inner,
                                     header):
    """PIVM/PDNF v3: a header (PIVM's ends with R, the UBM gives K and D),
    then the nested model's whole file image."""
    model = make()
    save(tmp_path / "outer.bin", model)
    save_inner(tmp_path / "inner.bin", inner(model))
    raw = (tmp_path / "outer.bin").read_bytes()
    assert raw[4:8] == (3).to_bytes(4, "little")
    assert raw[header:].startswith((tmp_path / "inner.bin").read_bytes())


@pytest.mark.parametrize("make,save", [
    (make_gmm, gmm.save_gmm),
    (make_ivector, ivector.save_ivector_model),
    (make_flow, flow.save_flow),
    (make_dnf, dnf.save_dnf),
    (make_svr, regress.save_svr),
], ids=["gmm", "ivector", "flow", "dnf", "svr"])
def test_other_version_rejected(tmp_path, make, save):
    path = tmp_path / "model.bin"
    save(path, make())
    raw = path.read_bytes()
    current = formats.VERSIONS[raw[:4].decode()]
    for version in sorted({0, 1, 2, 3} - {current}):
        path.write_bytes(raw[:4] + version.to_bytes(4, "little") + raw[8:])
        with pytest.raises(DataError, match=f"version {version} "):
            load_model(path)
