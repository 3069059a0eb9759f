"""The CLI's pinned results: exit code and output hash of every case in ``cli_pins.json``.

``make_cli_pins.py`` defines the cases and regenerates the file; a change
that moves a pinned output on purpose reruns it, and the diff names the
moved cases.
"""

import json

import make_cli_pins


def test_pins_list_the_generator_cases():
    pins = json.loads(make_cli_pins.PINS.read_text(encoding="utf-8"))
    assert [p["argv"] for p in pins] == make_cli_pins.cases()


def test_cli_reproduces_its_pins(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("RESOKIT_CONFIG", raising=False)
    make_cli_pins.write_files(tmp_path)
    pins = json.loads(make_cli_pins.PINS.read_text(encoding="utf-8"))
    moved = [(p, got) for p in pins if (got := make_cli_pins.pin(p["argv"])) != p]
    assert not moved, f"{len(moved)} of {len(pins)} cases moved, the first: {moved[0]}"
