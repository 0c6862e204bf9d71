"""Sectioned key=value config parsing, fail-closed typed reading."""

import re

import pytest

from pnpdm.config import (
    ConfigError,
    boolean,
    finite_float,
    float_list,
    load_config,
    parse_config,
    read_config,
)


def test_parse_basic_sections_and_comments():
    text = """
# leading comment
[phantom]
height = 128   # trailing comment
width = 64

[io]
output_dir = /tmp/run
"""
    sections = parse_config(text)
    assert sections == {
        "phantom": {"height": "128", "width": "64"},
        "io": {"output_dir": "/tmp/run"},
    }


def test_value_may_contain_equals():
    sections = parse_config("[a]\ncmd = x --flag=1\n")
    assert sections["a"]["cmd"] == "x --flag=1"


def test_hash_starts_a_comment_only_after_whitespace():
    text = "[io]\noutput = runs/a#1.pnpi\nlog = run.log\t# tab comment\n  # indented\n"
    assert parse_config(text) == {"io": {"output": "runs/a#1.pnpi", "log": "run.log"}}


@pytest.mark.parametrize("text", [
    "[a]\nkey = 1\nkey = 2\n",      # duplicate key
    "key = 1\n",                     # key outside any section
    "[a]\nnot a pair\n",             # no equals sign
    "[a]\n9bad = 1\n",               # invalid key name
])
def test_parse_errors(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_load_config_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("# caf\u00e9\n[run]\nseed = 1\n".encode("latin-1"))
    with pytest.raises(ConfigError, match=re.escape(f"cannot read config {path}")):
        load_config(path)


SCHEMA = {
    "run": {"seed": int, "rate": finite_float, "strict": boolean, "levels": float_list},
    "phantom": {"height": int, r"layer\d+": float_list},
    "io": {"output": str},
}


def _read(tmp_path, text):
    path = tmp_path / "c.cfg"
    path.write_text(text, encoding="utf-8")
    return read_config(path, SCHEMA)


def test_read_config_typed_values_and_unset_keys_absent(tmp_path):
    cfg = _read(tmp_path, "[run]\nseed = 42\nrate = 2.5\nstrict = on\nlevels = 1, 2.5,3\n"
                          "[phantom]\nlayer1 = 1,2,3,4\nlayer12 = 5,6,7,8\n")
    assert cfg == {
        "run": {"seed": 42, "rate": 2.5, "strict": True, "levels": [1.0, 2.5, 3.0]},
        "phantom": {"layer1": [1.0, 2.0, 3.0, 4.0], "layer12": [5.0, 6.0, 7.0, 8.0]},
        "io": {},
    }
    assert type(cfg["run"]["seed"]) is int


@pytest.mark.parametrize("text,names", [
    ("[other]\nseed = 1\n", "[other]"),
    ("[run]\niterations = 1\n", "run.iterations"),
    ("[phantom]\nlayer = 1,2,3,4\n", "phantom.layer"),
    ("[phantom]\nlayer1x = 1,2,3,4\n", "phantom.layer1x"),
    ("[phantom]\nheight_layer1 = 1\n", "phantom.height_layer1"),
    ("[run]\nseed = 2.5\n", "run.seed"),
    ("[run]\nrate = abc\n", "run.rate"),
    ("[run]\nstrict = maybe\n", "run.strict"),
    ("[run]\nlevels = 1,x\n", "run.levels"),
    ("[run]\nrate = nan\n", "run.rate"),
    ("[run]\nrate = -inf\n", "run.rate"),
    ("[run]\nrate = Infinity\n", "run.rate"),
    ("[run]\nlevels = 1,nan\n", "run.levels"),
    ("[run]\nlevels = inf\n", "run.levels"),
], ids=["unknown-section", "unknown-key", "layer-without-digits", "layer-suffix",
        "layer-prefix", "int-fraction", "float-word", "bool-word", "list-word", "nan",
        "minus-inf", "infinity", "list-nan", "list-inf"])
def test_read_config_fails_closed_naming_the_key(tmp_path, text, names):
    with pytest.raises(ConfigError, match=re.escape(names)):
        _read(tmp_path, text)


def test_boolean_spellings():
    for text in ("TRUE", "yes", "1", "On"):
        assert boolean(text) is True
    for text in ("false", "No", "0", "off"):
        assert boolean(text) is False
    with pytest.raises(ValueError):
        boolean("maybe")


def test_float_list_parses_including_empty():
    assert float_list("1, 2.5,3") == [1.0, 2.5, 3.0]
    assert float_list("") == []
    assert float_list("1,,2") == [1.0, 2.0]
