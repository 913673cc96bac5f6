"""One table-driven pass over ``BUILD_KNOBS``: each row is a working
CLI flag, a request key, a validation rule and (or not) a session-key
term.  A new row needs a ``SAMPLES`` entry and nothing else here."""

import argparse

import pytest

from repro.driver.options import (
    BUILD_KNOBS,
    add_build_flags,
    build_request,
    parse_build_request,
)

SOURCES = {"m": "func main() { return 0; }"}

#: key -> (argv setting it, the value that parses to, a second valid
#: value, a wrong-typed value).
SAMPLES = {
    "opt_level": (["-O", "4"], 4, 1, 4.0),
    "profile_path": (["-P", "/p/a.json"], "/p/a.json", "/p/b.json", 7),
    "selectivity": (["--selectivity", "20.2"], 20.2, 20.4, "x"),
    "checked": (["--checked"], True, False, "no"),
    "hlo_jobs": (["--hlo-jobs", "2"], 2, 3, 2.0),
    "partitions": (["--partitions", "4"], 4, 8, "4"),
    "hlo_backend": (["--hlo-backend", "processes"], "processes", "auto", 1),
    "incremental": (["--incremental"], True, False, "false"),
    "state_dir": (["--state-dir", "/s/a"], "/s/a", "/s/b", 7),
}


def parse_cli(argv):
    parser = argparse.ArgumentParser()
    add_build_flags(parser)
    return parser.parse_args(argv)


def test_defaults_are_omitted_from_the_request():
    assert build_request(parse_cli([]), SOURCES) == {"sources": SOURCES}
    defaults = parse_build_request({"sources": SOURCES})
    assert defaults == parse_build_request({})
    for knob in BUILD_KNOBS:
        assert getattr(defaults, knob.key) == knob.default
        # JSON null means "not set", as in docs/farm.md's example.
        assert parse_build_request({knob.key: None}) == defaults


@pytest.mark.parametrize("knob", BUILD_KNOBS, ids=lambda knob: knob.key)
def test_knob(knob):
    argv, value, other, wrong = SAMPLES[knob.key]

    # The flag parses, and only it leaves the client.
    request = build_request(parse_cli(argv), SOURCES)
    assert request == {"sources": SOURCES, knob.key: value}

    # CLI -> request -> BuildConfig is the same as the bare request.
    config = parse_build_request(request)
    assert getattr(config, knob.key) == value
    assert config == parse_build_request({knob.key: value})

    # Validation is strict about type and names the key.
    with pytest.raises(ValueError, match="'%s'" % knob.key):
        parse_build_request({knob.key: wrong})

    # Two requests share a warm session iff no session-scoped knob
    # separates them.
    other_config = parse_build_request({knob.key: other})
    assert (config.session_key() != other_config.session_key()) == knob.session


def test_using_a_profile_at_all_is_session_scoped():
    # Which profile may change between builds of one session; whether
    # one is used may not (it flips +P and the incremental fingerprints).
    plain = parse_build_request({}).session_key()
    assert parse_build_request({"profile_path": "/p/a"}).session_key() != plain


def test_a_removed_knob_is_refused_by_name():
    # A client built when ``--profile-feed`` or ``--profile-hot`` still
    # existed sends a key the table no longer has: a ValueError naming
    # it, not a build that silently drops it.
    for key, value in (("profile_feed", "app"), ("profile_hot", True)):
        with pytest.raises(ValueError, match="'%s'" % key):
            parse_build_request({key: value})
