"""The seeded generator: determinism, and that every source it makes parses
in its frontend and analyzes to its template's answer."""

from collections import Counter

import pytest

from perfbench import checks, mix
from repro.kernels import kernel_names

NAMES = kernel_names()


def test_service_mix_is_deterministic_with_a_fixed_multiset():
    mix_a = mix.service_mix(3, 0)
    assert mix_a == mix.service_mix(3, 0)
    mix_b = mix.service_mix(4, 0)
    assert mix_a != mix_b

    def multiset(requests):
        return Counter((r["kind"], r["name"]) for r in requests)

    assert multiset(mix_a) == multiset(mix_b)
    counts = Counter(r["kind"] for r in mix_a)
    assert set(mix.SERVICE_KERNELS) <= set(NAMES)
    assert counts["kernel"] == len(mix.SERVICE_KERNELS) * mix.KERNEL_REPEATS
    assert counts["bounds"] == len(mix.BOUNDS_KERNELS) * mix.BOUNDS_REPEATS
    assert counts["analyze"] == len(mix.TEMPLATES) * mix.ANALYZE_REPEATS
    assert [r["index"] for r in mix_a] == list(range(len(mix_a)))


def test_renamings_follow_their_template():
    seen = set()
    for request in mix.service_mix(5, 2):
        if request["kind"] != "analyze":
            continue
        canonical = mix.template_source(request["name"])
        if request["name"] in seen:
            assert request["renamed"] and request["source"] != canonical
        else:
            assert not request["renamed"] and request["source"] == canonical
        seen.add(request["name"])
    assert seen == set(mix.TEMPLATES)


@pytest.fixture(scope="module")
def analyzed():
    """Every distinct /analyze source of two seeds, parsed and analyzed."""
    from repro.analysis import analyze_source
    from repro.engine import Engine, program_fingerprint
    from repro.frontend import parse_c, parse_python
    from repro.reporting.serialize import program_bound_report

    engine = Engine()
    parsers = {"python": parse_python, "c": parse_c}
    out = {}
    for seed in (1, 2):
        for request in mix.service_mix(seed, 0):
            if request["kind"] != "analyze" or request["source"] in out:
                continue
            language = request["language"]
            program = parsers[language](request["source"], name=request["name"])
            result = analyze_source(
                request["source"], name=request["name"], language=language,
                engine=engine,
            )
            out[request["source"]] = (
                request["name"],
                program_fingerprint(program),
                checks.normalize_answer(
                    program_bound_report(result, name=request["name"],
                                         language=language)
                ),
            )
    return out


def test_every_generated_source_parses_and_analyzes(analyzed):
    canonical = {
        template: entry
        for source, entry in analyzed.items()
        for template in [entry[0]]
        if source == mix.template_source(template)
    }
    assert set(canonical) == set(mix.TEMPLATES)
    for template, fingerprint, report in analyzed.values():
        assert report["bound"] not in ("0", "")
        # a renaming is the same request to the daemon: same fingerprint,
        # same answer as its template
        assert fingerprint == canonical[template][1]
        assert report == canonical[template][2]


def test_templates_have_distinct_fingerprints(analyzed):
    fingerprints = {entry[1] for entry in analyzed.values()}
    assert len(fingerprints) == len(mix.TEMPLATES)
