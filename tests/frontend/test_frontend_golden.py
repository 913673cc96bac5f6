"""What the frontends emit for the golden programs is frozen.

``tests/fixtures/golden_frontend.json`` holds, per program and module,
the sha256 of the module's printed IL (:func:`repro.ir.printer.format_module`)
and of its IL object's bytes (``ObjectFile.from_il_module(module).to_bytes()``),
and, for 20 seeded one-character mutations (delete, insert or replace) of
one module per language per program, either the mutated module's IL digest
or the error it raised as ``"<ExceptionType>: <message>"``.  The programs
are the golden ones of ``tests/llo/test_regalloc_golden.py`` and the three
synth shapes the link-pipeline benchmark builds.  The fixture was produced
by the frontend that still built one ``Token`` object per token and parsed
MFL expressions through one method per precedence level; the flat-token
frontend must emit the very same IL and raise the very same errors.  To
regenerate after an *intended* frontend change::

    PYTHONPATH=src python tests/frontend/test_frontend_golden.py \\
        > tests/fixtures/golden_frontend.json
"""

import hashlib
import json
import os
import random
import sys

import pytest

from repro.frontend import compile_source, detect_language
from repro.ir.printer import format_module
from repro.linker.objects import ObjectFile
from repro.synth import full_suite, generate

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "llo"))

from test_regalloc_golden import PROGRAMS, program_sources  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, os.pardir, "fixtures", "golden_frontend.json")

#: The benchmark's synth shapes: (config of ``full_suite``, module scale).
SYNTH_SHAPES = {
    "mcad1_like_x0.6": ("mcad1_like", 0.6),
    "mcad2_like_x0.6": ("mcad2_like", 0.6),
    "mcad2_like_x1.0": ("mcad2_like", 1.0),
}

MUTATIONS_PER_LANGUAGE = 20
#: Characters a mutation inserts or substitutes: both languages'
#: alphabets, whitespace, a comment opener and characters neither lexes.
_ALPHABET = "azAZ_09 \n\t(){}[];,.=+-*/%<>!&|^~$#'"


def all_programs():
    return sorted(PROGRAMS) + sorted(SYNTH_SHAPES)


def sources_of(name):
    if name in SYNTH_SHAPES:
        config, scale = SYNTH_SHAPES[name]
        return generate(full_suite()[config].scaled(scale)).sources
    return program_sources(name)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def il_digest(module):
    return _sha(format_module(module).encode())


def _mutate(text, rng):
    position = rng.randrange(len(text))
    kind = rng.choice(("delete", "insert", "replace"))
    if kind == "delete":
        return text[:position] + text[position + 1:]
    char = rng.choice(_ALPHABET)
    if kind == "insert":
        return text[:position] + char + text[position:]
    return text[:position] + char + text[position + 1:]


def _outcome(text, module_name, language):
    try:
        module = compile_source(text, module_name, language)
    except Exception as exc:  # noqa: BLE001 - the error text is the record
        return "%s: %s" % (type(exc).__name__, exc)
    return il_digest(module)


def program_digests(name):
    """``{"modules": {module: [il sha, object sha]}, "mutations":
    {language: [outcome, ...]}}`` for one program."""
    sources = sources_of(name)
    modules = {}
    by_language = {}
    for module_name in sorted(sources):
        text = sources[module_name]
        language = detect_language(text)
        by_language.setdefault(language, []).append(module_name)
        module = compile_source(text, module_name, language)
        modules[module_name] = [
            il_digest(module),
            _sha(ObjectFile.from_il_module(module).to_bytes()),
        ]
    mutations = {}
    for language in sorted(by_language):
        rng = random.Random("%s/%s" % (name, language))
        outcomes = []
        for _ in range(MUTATIONS_PER_LANGUAGE):
            module_name = rng.choice(by_language[language])
            mutated = _mutate(sources[module_name], rng)
            outcomes.append(_outcome(mutated, module_name, language))
        mutations[language] = outcomes
    return {"modules": modules, "mutations": mutations}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("name", all_programs())
def test_frontend_output_unchanged(name, golden):
    got = program_digests(name)
    want = golden[name]
    assert sorted(got["modules"]) == sorted(want["modules"])
    for module_name, digests in sorted(want["modules"].items()):
        assert got["modules"][module_name] == digests, module_name
    for language, outcomes in sorted(want["mutations"].items()):
        for index, outcome in enumerate(outcomes):
            assert got["mutations"][language][index] == outcome, (
                language, index)
    assert sorted(got["mutations"]) == sorted(want["mutations"])


if __name__ == "__main__":
    print(json.dumps(
        {name: program_digests(name) for name in all_programs()},
        indent=1, sort_keys=True,
    ))
