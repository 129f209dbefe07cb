"""Element extraction and TSL category-partition expansion."""

from __future__ import annotations

import random
import time

import pytest

from racerepro import testcases
from racerepro.reports import BugReport
from racerepro.testcases import (
    MAX_FRAMES,
    TestCase as Case,
    TslError,
    _base_frames,
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

#: a=x holds only with b=y, a later category; the [error] frame is a=x b=y c=e
FORWARD_TSL = """\
category a:
    choice x [if b=y]
category b:
    choice y
category c:
    choice z
    choice e [error]
"""


def _report(body: str, subject: str = "subject") -> BugReport:
    return BugReport("t", subject, body)


def _category(spec, name: str):
    return next(cat for cat in spec if cat.name == name)


# --- parsing ------------------------------------------------------------------

def test_parse_mv_tsl_shape():
    spec = parse_tsl(MV_TSL)
    assert [c.name for c in spec] == ["options", "inputs"]
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


def test_parse_checks_repeats_in_linear_time():
    # 20,000 categories, each with a condition on the one before it
    text = "".join(
        f"category c{i}:\n  choice x\n  choice y [if c{max(i - 1, 0)}=x]\n" for i in range(20_000)
    )
    start = time.perf_counter()
    spec = parse_tsl(text)
    assert time.perf_counter() - start < 1.0
    assert len(spec) == 20_000


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


def test_special_frame_is_the_first_that_meets_its_conditions():
    # the [error] choice requires mode=slow, so its frame skips mode=fast
    spec = parse_tsl(
        "category mode:\n  choice fast\n  choice slow\n"
        "category retry:\n  choice crash [error] [if mode=slow]\n  choice off\n"
    )
    crash = [c for c in expand_tsl(spec) if c.error]
    assert [c.setup for c in crash] == [["mode=slow", "retry=crash"]]


def test_unsatisfiable_special_frame_raises():
    # turbo is [single], so no frame of plain choices elsewhere has mode=turbo
    spec = parse_tsl(
        "category mode:\n  choice fast\n  choice turbo [single]\n"
        "category retry:\n  choice crash [error] [if mode=turbo]\n  choice off\n"
    )
    with pytest.raises(
        TslError, match=r"\[error\] choice 'crash' of category 'retry'"
    ):
        expand_tsl(spec)


def test_special_frame_waits_for_a_condition_on_a_later_category():
    # a=x needs b=y, decided only after a: the frame filler must not read
    # the unassigned b as a failed condition
    spec = parse_tsl(FORWARD_TSL)
    cases = expand_tsl(spec)
    assert [(c.setup, c.error) for c in cases] == [
        (["a=x", "b=y", "c=z"], False),
        (["a=x", "b=y", "c=e"], True),
    ]


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


def test_each_case_owns_the_lists_a_partial_gives_it():
    partial = Case(command="mv", inputs=["bar", "foo"])
    cases = expand_tsl(parse_tsl(MV_TSL), partial)
    cases[0].inputs.append("baz")
    assert partial.inputs == ["bar", "foo"]
    assert all(c.inputs == ["bar", "foo"] for c in cases[1:])


def _satisfied(choice, assignment: dict[str, str]) -> bool:
    return all(assignment.get(cat) == val for cat, val in choice.conditions)


def _frames_oracle(spec, values=None):
    """The whole product of ``values`` (per category, the values it may
    take; by default its plain choices) built as a list, then filtered: the
    body ``_base_frames`` had before it streamed the product."""
    if values is None:
        values = [[c.value for c in cat.choices if c.plain] for cat in spec]
    frames = [{}]
    for cat, cat_values in zip(spec, values):
        frames = [{**frame, cat.name: value} for frame in frames for value in cat_values]
    by_value = {(cat.name, c.value): c for cat in spec for c in cat.choices}
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
    want = _frames_oracle(spec)
    assert frames == want
    assert [list(f) for f in frames] == [list(f) for f in want]  # key order too


def _random_spec_text(
    rng: random.Random, categories="abcd", values="xyz", tag_counts=(0, 0, 1, 1, 2)
) -> str:
    """A small spec with several tags per choice, and conditions on earlier,
    later and the same categories."""
    names = rng.sample(categories, rng.randint(1, len(categories)))
    lines = []
    for name in names:
        lines.append(f"category {name}:")
        for value in rng.sample(values, rng.randint(1, len(values))):
            tags = []
            for _ in range(rng.choice(tag_counts)):
                tag = rng.choice(("single", "error", "if", "if", "if"))
                if tag == "if":
                    tag = f"if {rng.choice(names)}={rng.choice(values)}"
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
        frames, want = _base_frames(spec), _frames_oracle(spec)
        assert frames == want
        assert [list(f) for f in frames] == [list(f) for f in want]

        # each special choice's frame is the first of the product that fixes
        # its category to it and leaves the others their plain choices
        plain = [[c.value for c in cat.choices if c.plain] for cat in spec]
        special_frames = []
        for depth, cat in enumerate(spec):
            for choice in cat.choices:
                if not choice.plain:
                    values = [*plain[:depth], [choice.value], *plain[depth + 1:]]
                    special_frames.append(
                        (_frames_oracle(spec, values)[:1], choice.error)
                    )
        if all(first for first, _ in special_frames):
            cases = expand_tsl(spec)
            assert [
                (dict(item.split("=", 1) for item in c.setup), c.error)
                for c in cases[len(frames):]
            ] == [(first[0], error) for first, error in special_frames]
        else:
            with pytest.raises(TslError, match="no frame satisfies"):
                expand_tsl(spec)
        compared += 1


def test_frames_match_the_whole_product_oracle_on_larger_random_specs():
    # up to 6 categories of 4 values and 3 tags a choice; every search the
    # expansion runs, the plain one and each special choice's, is compared
    rng = random.Random(26)
    compared = 0
    while compared < 2000:
        try:
            spec = parse_tsl(_random_spec_text(rng, "abcdef", "wxyz", (0, 0, 1, 1, 2, 3)))
        except TslError:  # a condition named a value its category lacks
            continue
        plain = [[c.value for c in cat.choices if c.plain] for cat in spec]
        searches = [plain] + [
            [*plain[:depth], [choice.value], *plain[depth + 1:]]
            for depth, cat in enumerate(spec)
            for choice in cat.choices if not choice.plain
        ]
        for values in searches:
            frames = list(testcases._frames(spec, values))
            want = _frames_oracle(spec, values)
            assert [list(f.items()) for f in frames] == [list(f.items()) for f in want]
        compared += 1


def test_a_subtree_found_empty_is_skipped_only_under_the_same_values():
    # the odd cycle a/b/c has a way out, all three w, only with t=y; p=x
    # leaves t just x, so the search below p=x is empty, and p=y, which
    # leaves t just y, must still find the frames below it
    spec = parse_tsl(
        "category p:\n  choice x [if t=x]\n  choice y [if t=y]\n"
        + _two_choice_categories(["f0", "f1"])
        + "category t:\n  choice x\n  choice y\n"
        + "category a:\n  choice x [if c=y]\n  choice y [if c=x]\n  choice w [if t=y] [if c=w]\n"
        + "category b:\n  choice x [if a=y]\n  choice y [if a=x]\n  choice w [if a=w]\n"
        + "category c:\n  choice x [if b=y]\n  choice y [if b=x]\n  choice w [if b=w]\n"
    )
    frames = _base_frames(spec)
    assert frames == _frames_oracle(spec)
    assert [(f["p"], f["f0"], f["f1"], f["t"], f["a"]) for f in frames] == [
        ("y", f0, f1, "y", "w") for f0 in "xy" for f1 in "xy"
    ]


def test_conditions_on_an_earlier_category_prune_the_search(monkeypatch):
    # c1..c13 each follow c0, so 2 of the 16,384 combinations are frames;
    # checking every combination would call _fits 14 times for each
    follow = "".join(
        f"category c{i}:\n  choice x [if c0=x]\n  choice y [if c0=y]\n" for i in range(1, 14)
    )
    spec = parse_tsl("category c0:\n  choice x\n  choice y\n" + follow)
    calls = 0
    fits = testcases._fits

    def counted(*args):
        nonlocal calls
        calls += 1
        return fits(*args)

    monkeypatch.setattr(testcases, "_fits", counted)
    assert _base_frames(spec) == [
        {f"c{i}": value for i in range(14)} for value in ("x", "y")
    ]
    # the checks grow with the number of categories, not with the product
    assert 0 < calls <= 14 * 14


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


def _odd_cycle(extra: str = "", between: str = "") -> str:
    """a, b and c must each differ from the one before, which two values
    cannot do around a cycle of three; each also gets the choice line
    ``extra``, and ``between`` comes between b and c."""
    return ("category a:\n  choice x [if c=y]\n  choice y [if c=x]\n" + extra
            + "category b:\n  choice x [if a=y]\n  choice y [if a=x]\n" + extra + between
            + "category c:\n  choice x [if b=y]\n  choice y [if b=x]\n" + extra)


def _padded(k: int, linked: bool) -> tuple[str, list[list[str]]]:
    """A spec and the setup of its one case.  f=x leaves the odd cycle only x and y, so its
    subtree is empty under each of the 2**k choices of e0..e<k-1>; each
    choice cuts r<i>, after the cycle.  Unlinked, r<i> links to no category
    after the cycle and keeps a value, so the empty search below a runs once;
    linked on to a later s<i>, every r<i> splits the memo key, so it would
    run 2**k times.  f=y gives the one frame."""
    def r(i: int, value: str) -> str:
        return f"  choice {value} [if s{i}={value}]\n" if linked else f"  choice {value}\n"

    text = ("category f:\n  choice x\n  choice y\n"
            + "".join(f"category e{i}:\n  choice x [if r{i}=a]\n  choice y [if r{i}=b] [if f=x]\n"
                      for i in range(k))
            + _odd_cycle(extra="  choice z [if f=y]\n")
            + "".join(f"category r{i}:\n" + r(i, "a") + r(i, "b") for i in range(k))
            + "".join(f"category s{i}:\n  choice a\n  choice b\n" for i in range(k) if linked))
    setup = ["f=y", *(f"e{i}=x" for i in range(k)), "a=z", "b=z", "c=z",
             *(f"r{i}=a" for i in range(k)), *(f"s{i}=a" for i in range(k) if linked)]
    return text, [setup]


_FREE = _two_choice_categories(f"c{i}" for i in range(30))

#: row -> (spec text, the setups of its cases, or the TslError they raise);
#: each expands within a second.  None has a [single] choice, so the cases
#: are the plain frames and then the [error] ones
HARD_SPECS = {
    # z's one choice needs c0 to be both x and y: the search must see that
    # once c0 is assigned, not after 2**30 combinations
    "a later category left without a value": (
        _FREE + "category z:\n  choice q [if c0=x] [if c0=y]\n", []),
    # z needs c28=x and w needs c28=y: the search must see that before it
    # walks the 2**28 combinations of c0..c27
    "conflicting conditions of two later categories": (
        _FREE + "category z:\n  choice q [if c28=x]\ncategory w:\n  choice p [if c28=y]\n", []),
    "an odd cycle around 28 free categories": (
        _odd_cycle(between=_two_choice_categories(f"f{i}" for i in range(28))), []),
    # the empty search below the categories before the cycle must be
    # remembered, not repeated for each of their 2**28 combinations
    "an odd cycle after 28 free categories": (
        _two_choice_categories(f"f{i}" for i in range(28)) + _odd_cycle(), []),
    # each category before the cycle is linked to l, after it, but leaves l its one value
    "an odd cycle after 28 categories linked past it": (
        "".join(f"category f{i}:\n  choice x [if l=x]\n  choice y [if l=x]\n" for i in range(28))
        + _odd_cycle() + "category l:\n  choice x\n", []),
    "a cut category linked to no later one": _padded(28, linked=False),
    # 2**28 empty subtrees: the search stops past MAX_FRAMES of them
    "linked cut categories past max frames": (
        _padded(28, linked=True)[0], f"more than {MAX_FRAMES} empty subtrees"),
    # 1,025 empty subtrees, within the bound
    "linked cut categories within max frames": _padded(8, linked=True),
    # each choice cuts the last category's values once, instead of checking
    # every earlier category against them again at each depth
    "many categories conditioned on the last one": (
        "".join(f"category c{i}:\n  choice x [if c4999=x]\n" for i in range(4999))
        + "category c4999:\n  choice x\n", [[f"c{i}=x" for i in range(5000)]]),
    # the plain product is empty at z, and the error case is still the first
    # frame with z=q
    "a category with no plain choice": (
        _FREE + "category z:\n  choice q [error]\n", [[*(f"c{i}=x" for i in range(30)), "z=q"]]),
}


@pytest.mark.parametrize("row", list(HARD_SPECS))
def test_a_hard_spec_expands_within_a_second(row):
    text, want = HARD_SPECS[row]
    spec = parse_tsl(text)
    start = time.perf_counter()
    if isinstance(want, str):
        with pytest.raises(TslError, match=want):
            expand_tsl(spec)
    else:
        frames, cases = _base_frames(spec), expand_tsl(spec)
        assert [c.setup for c in cases] == want
        errors = [c.error for c in cases]
        assert errors == [False] * len(frames) + [True] * (len(cases) - len(frames))
    assert time.perf_counter() - start < 1.0


def test_empty_spec_expands_to_nothing():
    assert expand_tsl([]) == []


def test_command_category_fills_the_command_and_a_partial_overrides_it():
    spec = parse_tsl("category command:\n  choice cp\n  choice mv\n"
                     "category options:\n  choice none\n  choice -f\n"
                     "category target:\n  choice file\n")
    assert [(c.command, c.options, c.setup) for c in expand_tsl(spec)] == [
        ("cp", [], ["target=file"]), ("cp", ["-f"], ["target=file"]),
        ("mv", [], ["target=file"]), ("mv", ["-f"], ["target=file"]),
    ]
    # the partial's options replace every frame's, "none" included
    partial = Case(command="", options=["-p", "644"])
    assert [(c.command, c.options) for c in expand_tsl(spec, partial)] == [
        ("cp", ["-p", "644"]), ("cp", ["-p", "644"]),
        ("mv", ["-p", "644"]), ("mv", ["-p", "644"]),
    ]


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
