"""Element extraction and TSL category-partition expansion."""

from __future__ import annotations

import random

import pytest

from racerepro import testcases
from racerepro.reports import BugReport
from racerepro.testcases import (
    MAX_FRAMES,
    TestCase as Case,
    TslError,
    _base_frames,
    _satisfied,
    expand_tsl,
    extract_elements,
    parse_tsl,
)

MV_TSL = """\
category options:
    choice none
    choice -f
    choice -i                  [error]

category inputs:
    choice bar foo
    choice bar baz foo         [single]
"""


def _report(body: str, subject: str = "subject") -> BugReport:
    return BugReport.from_parts("t", subject, body)


def _category(spec, name: str):
    return next(cat for cat in spec.categories if cat.name == name)


# --- parsing ------------------------------------------------------------------

def test_parse_mv_tsl_shape():
    spec = parse_tsl(MV_TSL)
    assert [c.name for c in spec.categories] == ["options", "inputs"]
    options = _category(spec, "options")
    assert [c.value for c in options.choices] == ["none", "-f", "-i"]
    assert options.choices[2].error
    inputs = _category(spec, "inputs")
    assert inputs.choices[1].single


def test_parse_skips_comments_and_blanks():
    spec = parse_tsl("# header\n\ncategory a:\n  # note\n  choice x\n")
    assert [c.value for c in _category(spec, "a").choices] == ["x"]


def test_parse_if_tag():
    spec = parse_tsl(
        "category mode:\n  choice fast\n  choice slow\n"
        "category retry:\n  choice on [if mode=slow]\n  choice off\n"
    )
    on = _category(spec, "retry").choices[0]
    assert on.conditions == (("mode", "slow"),)


@pytest.mark.parametrize(
    "text",
    [
        "choice orphan\n",                                     # choice before any category
        "category a:\n  choice x [bogus]\n",                   # unknown tag
        "category a:\n  choice x\ncategory b:\n",              # empty category
        "category a:\n  choice [single]\n",                    # empty value
        "category :\n  choice x\n",                            # empty name
        "category a:\n  choice x\nfreeform nonsense\n",        # unrecognized line
        "category a:\n  choice x [if ghost=x]\n",              # unknown category ref
        "category a:\n  choice x [if a=ghost]\n",              # unknown value ref
        "category a:\n  choice x [if nonsense]\n",             # malformed condition
        "category a:\n  choice x\ncategory a:\n  choice y\n",  # category declared twice
        "category a:\n  choice x [if b=y]\n  choice x [single]\n"
        "category b:\n  choice y\n  choice z\n",                # choice repeated
    ],
)
def test_parse_errors(text):
    with pytest.raises(TslError):
        parse_tsl(text)


# --- expansion ----------------------------------------------------------------

def test_plain_product_two_by_three():
    spec = parse_tsl(
        "category a:\n  choice 1\n  choice 2\n"
        "category b:\n  choice x\n  choice y\n  choice z\n"
    )
    cases = expand_tsl(spec)
    assert len(cases) == 6
    assert all(not c.error for c in cases)
    assert {tuple(c.setup) for c in cases} == {
        ("a=1", "b=x"), ("a=1", "b=y"), ("a=1", "b=z"),
        ("a=2", "b=x"), ("a=2", "b=y"), ("a=2", "b=z"),
    }


def test_single_contributes_exactly_one_frame():
    spec = parse_tsl(
        "category a:\n  choice 1\n  choice 2\n  choice big [single]\n"
        "category b:\n  choice x\n  choice y\n"
    )
    cases = expand_tsl(spec)
    assert len(cases) == 2 * 2 + 1
    big = [c for c in cases if "a=big" in c.setup]
    assert len(big) == 1
    assert big[0].setup == ["a=big", "b=x"]  # first plain choice fills the rest
    assert not big[0].error


def test_error_frame_is_flagged():
    cases = expand_tsl(parse_tsl(MV_TSL))
    flagged = [c for c in cases if c.error]
    assert len(flagged) == 1
    assert flagged[0].options == ["-i"]


def test_if_constraint_filters_product():
    spec = parse_tsl(
        "category mode:\n  choice fast\n  choice slow\n"
        "category retry:\n  choice on [if mode=slow]\n  choice off\n"
    )
    cases = expand_tsl(spec)
    combos = {tuple(c.setup) for c in cases}
    assert combos == {
        ("mode=fast", "retry=off"),
        ("mode=slow", "retry=on"),
        ("mode=slow", "retry=off"),
    }


def test_unsatisfiable_special_frame_raises():
    # the [error] choice requires mode=slow, but the frame filler always
    # picks the first plain choice (fast), so the condition cannot hold
    spec = parse_tsl(
        "category mode:\n  choice fast\n  choice slow\n"
        "category retry:\n  choice crash [error] [if mode=slow]\n  choice off\n"
    )
    with pytest.raises(TslError):
        expand_tsl(spec)


def test_none_sentinel_empties_the_field():
    cases = expand_tsl(parse_tsl(MV_TSL))
    # the literal value "none" never leaks into a concrete case
    assert all(c.options != ["none"] for c in cases)
    assert any(c.options == [] and c.inputs == ["bar", "foo"] for c in cases)


def test_mv_tsl_expands_to_four_frames():
    cases = expand_tsl(parse_tsl(MV_TSL))
    assert len(cases) == 4  # (none, -f) x (bar foo) + [error] + [single]
    rendered = sorted(c.render() for c in cases)
    assert rendered == [
        "-f bar foo", "-i bar foo", "bar baz foo", "bar foo",
    ]


def test_partial_overrides_every_frame():
    partial = Case(command="mv", inputs=["bar", "foo"])
    cases = expand_tsl(parse_tsl(MV_TSL), partial)
    assert len(cases) == 4
    assert all(c.command == "mv" for c in cases)
    # the [single] frame's "bar baz foo" gives way to the extracted inputs
    assert all(c.inputs == ["bar", "foo"] for c in cases)
    assert {tuple(c.options) for c in cases} == {(), ("-f",), ("-i",)}


def _base_frames_oracle(spec):
    """The whole product built as a list, then filtered: the body
    ``_base_frames`` had before it streamed the product."""
    frames = [{}]
    for cat in spec.categories:
        plain = [c for c in cat.choices if c.plain]
        frames = [{**frame, cat.name: choice.value} for frame in frames for choice in plain]
    by_value = {(cat.name, c.value): c for cat in spec.categories for c in cat.choices}
    return [
        frame
        for frame in frames
        if all(_satisfied(by_value[(name, value)], frame) for name, value in frame.items())
    ]


@pytest.mark.parametrize("text", [
    MV_TSL,
    "category mode:\n  choice fast\n  choice slow\n"
    "category retry:\n  choice on [if mode=slow]\n  choice off\n",
    "category late:\n  choice a [if early=y]\n  choice b\n  choice c [single]\n"
    "category early:\n  choice x\n  choice y\n  choice z [error]\n"
    "category other:\n  choice p\n  choice q\n  choice r\n",
    "category only:\n  choice s [single]\n",
])
def test_base_frames_match_the_whole_product_oracle(text):
    spec = parse_tsl(text)
    frames = _base_frames(spec)
    want = _base_frames_oracle(spec)
    assert frames == want
    assert [list(f) for f in frames] == [list(f) for f in want]  # key order too


def _random_spec_text(rng: random.Random) -> str:
    """A small spec with several tags per choice, and conditions on earlier,
    later and the same categories."""
    names = rng.sample("abcd", rng.randint(1, 4))
    lines = []
    for name in names:
        lines.append(f"category {name}:")
        for value in rng.sample("xyz", rng.randint(1, 3)):
            tags = []
            for _ in range(rng.choice((0, 0, 1, 1, 2))):
                tag = rng.choice(("single", "error", "if", "if", "if"))
                if tag == "if":
                    tag = f"if {rng.choice(names)}={rng.choice('xyz')}"
                tags.append(f"[{tag}]")
            lines.append(f"  choice {value} {' '.join(tags)}")
    return "\n".join(lines) + "\n"


def test_base_frames_match_the_whole_product_oracle_on_random_specs():
    rng = random.Random(15)
    compared = 0
    while compared < 400:
        try:
            spec = parse_tsl(_random_spec_text(rng))
        except TslError:  # a condition named a value its category lacks
            continue
        frames, want = _base_frames(spec), _base_frames_oracle(spec)
        assert frames == want
        assert [list(f) for f in frames] == [list(f) for f in want]
        compared += 1


def test_conditions_on_an_earlier_category_prune_the_search(monkeypatch):
    # c1..c13 each follow c0, so 2 of the 16,384 combinations are frames;
    # checking every combination would call _satisfied 14 times for each
    follow = "".join(
        f"category c{i}:\n  choice x [if c0=x]\n  choice y [if c0=y]\n" for i in range(1, 14)
    )
    spec = parse_tsl("category c0:\n  choice x\n  choice y\n" + follow)
    calls = 0
    satisfied = testcases._satisfied

    def counted(choice, assignment):
        nonlocal calls
        calls += 1
        return satisfied(choice, assignment)

    monkeypatch.setattr(testcases, "_satisfied", counted)
    assert _base_frames(spec) == [
        {f"c{i}": value for i in range(14)} for value in ("x", "y")
    ]
    # each of c1..c13 tries its two values under each of the two prefixes
    assert calls <= 13 * 2 * 2


def _two_choice_categories(names) -> str:
    return "".join(f"category {name}:\n  choice x\n  choice y\n" for name in names)


def test_frame_limit_counts_frames_that_survive_the_conditions():
    # 13 categories give 8,192 combinations, but c0=y and c1=y only go
    # together, so exactly MAX_FRAMES survive
    paired = (
        "category c0:\n  choice x\n  choice y [if c1=y]\n"
        "category c1:\n  choice x\n  choice y [if c0=y]\n"
    )
    rest = _two_choice_categories(f"c{i}" for i in range(2, 13))
    assert len(_base_frames(parse_tsl(paired + rest))) == MAX_FRAMES
    with pytest.raises(TslError, match=f"more than {MAX_FRAMES} frames"):
        _base_frames(parse_tsl(_two_choice_categories(f"c{i}" for i in range(13))))


def test_empty_spec_expands_to_nothing():
    from racerepro.testcases import TslSpec

    assert expand_tsl(TslSpec(categories=[])) == []


# --- extraction ---------------------------------------------------------------

def test_extract_prompt_line():
    case = extract_elements(_report("Prose first.\n\n$ mv bar foo\n\nMore prose."), ["mv"])
    assert (case.command, case.options, case.inputs) == ("mv", [], ["bar", "foo"])


def test_extract_option_with_numeric_argument():
    case = extract_elements(_report("$ mkdir -m 755 d\n"), ["mkdir"])
    assert (case.command, case.options, case.inputs) == ("mkdir", ["-m", "755"], ["d"])


def test_extract_no_match_is_empty():
    case = extract_elements(_report("Nothing shell-like here."), ["mv"])
    assert (case.command, case.options, case.inputs) == ("", [], [])


def test_extract_prefers_code_over_quoted_over_bare():
    body = 'mv wrong order here\nRunning "mv quoted in prose" fails.\n$ mv bar foo\n'
    case = extract_elements(_report(body), ["mv"])
    assert case.inputs == ["bar", "foo"]
    body_quoted = 'mv bare line\nRunning "mv quoted here" fails.\n'
    case = extract_elements(_report(body_quoted), ["mv"])
    assert case.inputs == ["quoted", "here"]


def test_extract_from_fenced_and_indented_blocks():
    fenced = "```\ngzip -9 file.txt\n```\n"
    case = extract_elements(_report(fenced), ["gzip"])
    assert (case.options, case.inputs) == (["-9"], ["file.txt"])
    indented = "Steps:\n\n    gzip -9 file.txt\n"
    case = extract_elements(_report(indented), ["gzip"])
    assert (case.options, case.inputs) == (["-9"], ["file.txt"])


def test_extract_skips_unknown_commands():
    case = extract_elements(_report("$ cp a b\n$ mv bar foo\n"), ["mv"])
    assert case.command == "mv"


def test_extract_from_mv_fixture(mv_report):
    case = extract_elements(mv_report, ["mv"])
    assert (case.command, case.options, case.inputs) == ("mv", [], ["bar", "foo"])


# --- rendering ----------------------------------------------------------------

def test_render_joins_command_options_inputs():
    case = Case(command="mv", options=["-f"], inputs=["bar", "foo"])
    assert case.render() == "mv -f bar foo"
    assert Case(command="").render() == ""
