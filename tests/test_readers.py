"""The key rule at every JSON object the command line reads.

Each object goes through ``errors.require_keys``: a non-object, a missing
required key and an unknown key each raise ``InvalidGramData`` naming the
object (exit code 1 on the command line), and a certificate loads only in
the form its writer writes.
"""

import copy
import io
import json
import warnings
from typing import Callable, NamedTuple

import numpy as np
import pytest

import framepaver as fp
from framepaver.cli import dispatch
from framepaver.errors import InvalidGramData, require_keys

# A banded system of three indices with its envelope and floor.
GRAM = {"size": 3,
        "entries": {"banded": {"bandwidth": 1,
                               "bands": [[0.25, 0.25], [1.0, 1.0, 1.0], [0.25, 0.25]]}},
        "envelope": {"A": 1.0, "s": 2.0}, "diag_floor": 1.0}
PAVING = {"range": 6, "modulus": 3, "classes": [[1, 4], [2, 5], [3, 6]]}
EXPLICIT = fp.certificate_to_json_dict(
    fp.certify(fp.GramSystem.from_entries(np.eye(6)), fp.residue_partition(3, 6), 0.5))
NATURALS = fp.certificate_to_json_dict(
    fp.certify(fp.power_law_gram(1.0, 2.0, 1.0, 12), fp.residue_partition(3), 0.3))


@pytest.fixture
def run(monkeypatch, capsys):
    def _run(argv, stdin_text=None):
        if stdin_text is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
        code = dispatch(argv)
        out, err = capsys.readouterr()
        return code, out, err
    return _run


class Reader(NamedTuple):
    load: Callable  # the reader, given a payload
    valid: dict  # a payload it accepts
    objects: dict  # name in the error -> (path to the object, a required key)


READERS = {
    "gram": Reader(fp.gram_from_json_dict, GRAM, {
        "gram payload": ((), "size"),
        "entries": (("entries",), "banded"),
        "banded entries": (("entries", "banded"), "bands"),
        "envelope": (("envelope",), "s"),
    }),
    "paving": Reader(fp.paving_from_json_dict, PAVING, {"paving": ((), "range")}),
    "explicit certificate": Reader(fp.certificate_from_json_dict, EXPLICIT, {
        "certificate": ((), "verdict"),
        "certificate classes": (("classes",), "kind"),
    }),
    "naturals certificate": Reader(fp.certificate_from_json_dict, NATURALS, {
        "certificate": ((), "epsilon"),
        "certificate classes": (("classes",), "kind"),
    }),
}

FAULTS = ("not-an-object", "missing-key", "unknown-key")


def _faulty(payload, path, key, fault):
    """A copy of ``payload`` whose object at ``path`` has ``fault``."""
    payload = copy.deepcopy(payload)
    parent, obj = None, payload
    for step in path:
        parent, obj = obj, obj[step]
    if fault == "not-an-object":
        if parent is None:
            return "text"
        parent[path[-1]] = "text"
    elif fault == "missing-key":
        del obj[key]
    else:
        obj["x" + key] = 0
    return payload


@pytest.mark.parametrize("reader,what", [(r, w) for r in READERS for w in READERS[r].objects])
@pytest.mark.parametrize("fault", FAULTS)
def test_reader_rejects_bad_keys_naming_the_object(reader, what, fault):
    load, valid, objects = READERS[reader]
    load(copy.deepcopy(valid))
    path, key = objects[what]
    with pytest.raises(InvalidGramData) as err:
        load(_faulty(valid, path, key, fault))
    assert str(err.value).startswith(what + " ")
    if fault != "not-an-object":
        assert repr(("x" if fault == "unknown-key" else "") + key) in str(err.value)


# The readers that live in the command line, each with a valid input and the
# command that reads it from the file ``{path}``.
CLI_READERS = {
    "frame input": ({"vectors": [[1, 0], [0, 1]], "functionals": [[1, 0], [0, 1]]},
                    "vectors", ["gen", "frame-check", "--vectors", "{path}"]),
    "oracle output": ({"N": 1, "classes": [[1, 2, 3, 4, 5, 6]], "margins": [1.0],
                       "compared_modulus": None},
                      "N", ["report", "--oracle", "{path}"]),
}


@pytest.mark.parametrize("what", CLI_READERS)
@pytest.mark.parametrize("fault", FAULTS)
def test_cli_reader_rejects_bad_keys_naming_the_object(run, tmp_path, what, fault):
    valid, key, argv = CLI_READERS[what]
    path = tmp_path / "input.json"
    argv = [a.format(path=path) for a in argv]
    certificate = json.dumps(EXPLICIT)
    path.write_text(json.dumps(valid), encoding="utf-8")
    assert run(argv, stdin_text=certificate)[0] == 0
    path.write_text(json.dumps(_faulty(valid, (), key, fault)), encoding="utf-8")
    code, out, err = run(argv, stdin_text=certificate)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {path}: {what} ")


@pytest.mark.parametrize("load,payload,fault", [
    (fp.paving_from_json_dict, {"range": 3, "classes": [1, 2, 3]}, "list of index lists"),
    (fp.paving_from_json_dict, {"range": 3, "classes": {"1": [1, 2, 3]}}, "list of index lists"),
    (fp.certificate_from_json_dict, dict(EXPLICIT, margins={"1": 1.0}), "margins must be"),
    (fp.certificate_from_json_dict, dict(EXPLICIT, margins=1.0), "margins must be"),
])
def test_readers_reject_values_of_the_wrong_shape(load, payload, fault):
    with pytest.raises(InvalidGramData, match=fault):
        load(payload)


def test_error_names_at_most_ten_keys_and_no_value():
    payload = {"A": 1.0, **{f"k{i}": [0] * 1000 for i in range(25)}, "x" * 1000: 0}
    with pytest.raises(InvalidGramData) as err:
        require_keys(payload, "envelope", ("A", "s"))
    text = str(err.value)
    assert text.startswith("envelope lacks 's', has unknown 'k0'") and "and 17 more" in text
    assert "k9" not in text and "[0" not in text and len(text) < 300


# -- misreads: inputs a looser reader would accept ---------------------------------


def _certificate(payload, **changes):
    out = copy.deepcopy(payload)
    out.update(changes)
    return out


def _explicit_misread():
    cert = _certificate(EXPLICIT, note="checked")
    cert["classes"]["classes"][0] = [4, 1]
    cert["classes"]["modulus"] = 5
    return cert


def _permuted():
    cert = copy.deepcopy(EXPLICIT)
    cert["classes"]["classes"][0] = [4, 1]
    return cert


@pytest.mark.parametrize("cert", [
    pytest.param(_certificate(NATURALS, modulus=7), id="naturals-modulus-contradicts-classes"),
    pytest.param(_certificate(NATURALS, modulus=7, margins=NATURALS["margins"][:1] * 7),
                 id="naturals-modulus-and-margins-contradict-classes"),
    pytest.param(_explicit_misread(), id="permuted-unknown-key-and-classes-modulus"),
    pytest.param(_permuted(), id="permuted-class"),
    pytest.param(_certificate(EXPLICIT, note="checked"), id="unknown-key"),
    pytest.param(_certificate(EXPLICIT, classes=dict(EXPLICIT["classes"], modulus=5)),
                 id="classes-modulus"),
])
def test_report_rejects_a_certificate_its_writer_would_not_write(run, cert):
    assert run(["report"], stdin_text=json.dumps(cert))[:2] == (1, "")


def test_misspelled_floor_is_not_ignored(run):
    gram = dict(GRAM)
    gram["diag_flor"] = gram.pop("diag_floor")
    code, out, err = run(["partition"], stdin_text=json.dumps(gram))
    assert (code, out) == (1, "")
    assert "'diag_flor'" in err


def test_misspelled_functionals_are_not_ignored(run, tmp_path):
    path = tmp_path / "frame.json"
    path.write_text(json.dumps({"vectors": [[1, 0], [0, 1]], "functionls": [[2, 0], [0, 2]]}),
                    encoding="utf-8")
    code, out, err = run(["gen", "frame-check", "--vectors", str(path)])
    assert (code, out) == (1, "")
    assert "'functionls'" in err


def test_large_unknown_envelope_key_gives_a_short_error(run):
    gram = copy.deepcopy(GRAM)
    gram["envelope"]["zeros"] = [0] * 100_000
    code, out, err = run(["partition"], stdin_text=json.dumps(gram))
    assert (code, out) == (1, "")
    assert "'zeros'" in err and len(err.encode()) < 200


@pytest.mark.parametrize("text,fault", [
    ('{"vectors": [[1, true], [0, 1]]}', "vectors row 0 must hold numbers only, got bool"),
    ('{"vectors": [[[1]]]}', "vectors row 0 must hold numbers only, got list"),
    ('{"vectors": "abc"}', "vectors must be a non-empty list of non-empty rows"),
    ('{"vectors": [[1, 0], [0, 1]], "functionals": [[1e400, 0], [0, 1]]}',
     "functionals row 0 must be finite"),
    ('{"vectors": [[1, 0], [0]]}', "vectors row 1 must be a list of 2 numbers"),
    ('{"vectors": [[]]}', "vectors must be a non-empty list of non-empty rows"),
    ('{"vectors": [[1e200, 0], [0, 1]]}', "the frame operator overflows float64"),
    ('{"vectors": [[1e200, 0], [1e200, 1]], "functionals": [[1e200, 0], [-1e200, 1]]}',
     "the frame operator overflows float64"),
])
def test_frame_input_values_follow_the_number_rule(run, tmp_path, text, fault):
    path = tmp_path / "frame.json"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(["gen", "frame-check", "--vectors", str(path)])
    assert (code, out, err) == (1, "", f"error: {path}: {fault}\n")


@pytest.mark.parametrize("call", [
    pytest.param(lambda: fp.FrameSystem(vectors=[[1, True], ["0", 1]],
                                        functionals=[[1, 0], [0, 1]]), id="FrameSystem"),
    pytest.param(lambda: fp.FrameSystem.self_dual([[1.0, None], [0.0, 1.0]]),
                 id="FrameSystem.self_dual"),
    pytest.param(lambda: fp.GramSystem.from_entries([[1, True], [0, 1]]), id="from_entries"),
    pytest.param(lambda: fp.GramSystem.from_entries(np.array([[True, False], [False, True]])),
                 id="from_entries-bool-array"),
    pytest.param(lambda: fp.GramSystem.from_entries([[1.0, 0.0], [0.0]]),
                 id="from_entries-ragged"),
    pytest.param(lambda: fp.GramSystem.from_distance_profile([1, "0.5"]),
                 id="from_distance_profile"),
    pytest.param(lambda: fp.GramSystem.from_cyclic_profile([1.0, "0.5"], 2),
                 id="from_cyclic_profile"),
    pytest.param(lambda: fp.translate_frame_gram([True, 1], 4), id="translate_frame_gram"),
])
def test_library_arrays_follow_the_number_rule(call):
    with pytest.raises(InvalidGramData):
        call()


def test_library_float64_arrays_and_number_lists_give_the_same_system():
    rows = [[1, 0.25], [0.5, 2]]
    listed, arrayed = fp.GramSystem.from_entries(rows), fp.GramSystem.from_entries(
        np.array(rows, dtype=np.float64))
    assert listed._data.tobytes() == arrayed._data.tobytes()
    assert fp.GramSystem.from_entries(np.array(rows, dtype=np.float32)).dense().tolist() == rows
