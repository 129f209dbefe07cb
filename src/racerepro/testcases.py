"""Test-case element extraction and category-partition (TSL) expansion.

The TSL dialect is a minimal line-oriented subset::

    category <name>:
        choice <value>
        choice <value> [single]
        choice <value> [error]
        choice <value> [if <category>=<value>]

Plain choices multiply into the Cartesian product (filtered by [if]
constraints); every [single] or [error] choice instead contributes exactly
one extra frame, with the remaining categories taking their first eligible
plain choice.  Elements extracted from the bug report override the
same-named categories in every frame.  The categories named ``command``,
``options``, and ``inputs`` map onto the TestCase fields (the literal
choice value ``none`` means the empty list); other categories become
``name=value`` setup actions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .reports import BugReport

_PROMPT_RE = re.compile(r"^\s*[$%>]\s+(.*)$")
_QUOTED_RE = re.compile(r'"([^"\n]+)"|`([^`\n]+)`')
_NUMERIC_RE = re.compile(r"^\d+$")

#: The most frames a spec's plain choices may yield; each further two-choice
#: category doubles the product, so a larger spec is refused, not expanded.
MAX_FRAMES = 4096


# --- test cases -------------------------------------------------------------

@dataclass
class TestCase:
    command: str
    options: list[str] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)
    setup: list[str] = field(default_factory=list)
    error: bool = False  # frame came from an [error] choice

    def render(self) -> str:
        return " ".join([self.command, *self.options, *self.inputs]).strip()


# --- extraction -------------------------------------------------------------

def _candidate_snippets(report: BugReport) -> list[str]:
    """Shell-looking snippets, most code-styled first.

    Tier 1: prompt lines ($ % >), fenced blocks, indented blocks.
    Tier 2: quoted or backticked inline snippets.
    Tier 3: bare body lines (last resort; prose rarely parses as a command).
    """
    code: list[str] = []
    quoted_snips: list[str] = []
    bare: list[str] = []
    in_fence = False
    for line in report.body.splitlines():
        stripped = line.strip()
        if stripped.startswith("```"):
            in_fence = not in_fence
            continue
        prompt = _PROMPT_RE.match(line)
        if prompt:
            code.append(prompt.group(1).strip())
            continue
        if in_fence and stripped:
            code.append(stripped)
            continue
        if line.startswith(("    ", "\t")) and stripped:
            code.append(stripped)
            continue
        for match in _QUOTED_RE.finditer(line):
            quoted_snips.append((match.group(1) or match.group(2)).strip())
        if stripped:
            bare.append(stripped)
    return code + quoted_snips + bare


def _split_command(tokens: list[str]) -> tuple[list[str], list[str]]:
    """Post-command tokens -> (options, inputs).

    Dash tokens are options; a numeric token directly after an option is
    that option's argument (``-m 755``), everything else is input data.
    """
    options: list[str] = []
    inputs: list[str] = []
    expecting_arg = False
    for tok in tokens:
        if tok.startswith("-") and len(tok) > 1:
            options.append(tok)
            expecting_arg = True
        elif expecting_arg and _NUMERIC_RE.match(tok):
            options.append(tok)
            expecting_arg = False
        else:
            inputs.append(tok)
            expecting_arg = False
    return options, inputs


def extract_elements(report: BugReport, known_commands: list[str]) -> TestCase:
    """First shell-like snippet whose first token is a known command.

    Returns a partial TestCase; all fields empty when nothing matches.
    """
    known = set(known_commands)
    for snippet in _candidate_snippets(report):
        tokens = snippet.split()
        if tokens and tokens[0] in known:
            options, inputs = _split_command(tokens[1:])
            return TestCase(command=tokens[0], options=options, inputs=inputs)
    return TestCase(command="")


# --- TSL --------------------------------------------------------------------

@dataclass(frozen=True)
class Choice:
    value: str
    error: bool = False
    single: bool = False
    #: conjunction of (category, value) conditions from [if ...] tags
    conditions: tuple[tuple[str, str], ...] = ()

    @property
    def plain(self) -> bool:
        return not (self.error or self.single)


@dataclass
class Category:
    name: str
    choices: list[Choice]


@dataclass
class TslSpec:
    categories: list[Category]


class TslError(ValueError):
    """Raised for unparsable specs or unsatisfiable frames."""


def _parse_tags(raw_tags: list[str], value: str) -> Choice:
    error = single = False
    conditions: list[tuple[str, str]] = []
    for tag in raw_tags:
        if tag == "error":
            error = True
        elif tag == "single":
            single = True
        elif tag.startswith("if "):
            expr = tag[3:].strip()
            if "=" not in expr:
                raise TslError(f"malformed condition tag [{tag}]")
            cat, _, val = expr.partition("=")
            conditions.append((cat.strip(), val.strip()))
        else:
            raise TslError(f"unknown tag [{tag}]")
    return Choice(value=value, error=error, single=single, conditions=tuple(conditions))


def parse_tsl(text: str) -> TslSpec:
    categories: list[Category] = []
    current: Category | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("category ") and line.endswith(":"):
            name = line[len("category "):-1].strip()
            if not name:
                raise TslError(f"line {lineno}: empty category name")
            if any(cat.name == name for cat in categories):
                raise TslError(f"line {lineno}: category {name!r} declared twice")
            current = Category(name=name, choices=[])
            categories.append(current)
            continue
        if line.startswith("choice "):
            if current is None:
                raise TslError(f"line {lineno}: choice outside any category")
            rest = line[len("choice "):].strip()
            raw_tags: list[str] = []
            while rest.endswith("]") and "[" in rest:
                open_idx = rest.rindex("[")
                raw_tags.insert(0, rest[open_idx + 1 : -1].strip())
                rest = rest[:open_idx].rstrip()
            if not rest:
                raise TslError(f"line {lineno}: empty choice value")
            if any(choice.value == rest for choice in current.choices):
                raise TslError(
                    f"line {lineno}: choice {rest!r} repeated in category {current.name!r}"
                )
            current.choices.append(_parse_tags(raw_tags, rest))
            continue
        raise TslError(f"line {lineno}: unrecognized line {line!r}")

    for cat in categories:
        if not cat.choices:
            raise TslError(f"category {cat.name!r} has no choices")

    by_name = {cat.name: cat for cat in categories}
    for cat in categories:
        for choice in cat.choices:
            for ref_cat, ref_val in choice.conditions:
                if ref_cat not in by_name:
                    raise TslError(
                        f"choice {choice.value!r} references unknown category {ref_cat!r}"
                    )
                if ref_val not in [c.value for c in by_name[ref_cat].choices]:
                    raise TslError(
                        f"choice {choice.value!r} references unknown choice "
                        f"{ref_cat}={ref_val!r}"
                    )
    return TslSpec(categories=categories)


def _satisfied(choice: Choice, assignment: dict[str, str]) -> bool:
    return all(assignment.get(cat) == val for cat, val in choice.conditions)


def _base_frames(spec: TslSpec) -> list[dict[str, str]]:
    """The frames of the plain choices' product that satisfy every [if]
    condition of their choices, in product order (last category fastest).

    Categories are assigned depth-first in declaration order.  A choice's
    conditions are checked as soon as its own category and every category
    they name have their values, so a condition on an earlier category
    prunes the search and one on a later category waits for it.
    """
    by_value = {
        (cat.name, c.value): c for cat in spec.categories for c in cat.choices
    }
    names = [cat.name for cat in spec.categories]
    if not names:
        return [{}]  # the empty product
    plain = [[c.value for c in cat.choices if c.plain] for cat in spec.categories]
    depth_of = {name: depth for depth, name in enumerate(names)}
    # per depth, the (category, value, choice) whose conditions it decides
    checks: list[list[tuple[str, str, Choice]]] = [[] for _ in names]
    for (name, value), choice in by_value.items():
        if choice.conditions:
            own = depth_of[name]
            due = max(own, *(depth_of.get(ref, own) for ref, _ in choice.conditions))
            checks[due].append((name, value, choice))

    frames: list[dict[str, str]] = []
    frame: dict[str, str] = {}
    untried = [iter(plain[0])]  # per open category, its values not yet tried
    while untried:
        depth = len(untried) - 1
        value = next(untried[depth], None)
        if value is None:
            untried.pop()
            continue
        frame[names[depth]] = value
        if not all(frame[n] != v or _satisfied(c, frame) for n, v, c in checks[depth]):
            continue
        if depth + 1 < len(names):
            untried.append(iter(plain[depth + 1]))
        elif len(frames) == MAX_FRAMES:
            raise TslError(f"plain choices yield more than {MAX_FRAMES} frames")
        else:
            frames.append(dict(frame))
    return frames


def _special_frame(spec: TslSpec, special_cat: Category, special: Choice) -> dict[str, str]:
    assignment: dict[str, str] = {special_cat.name: special.value}
    for cat in spec.categories:
        if cat.name == special_cat.name:
            continue
        eligible = [
            c for c in cat.choices if c.plain and _satisfied(c, assignment)
        ]
        if not eligible:
            raise TslError(
                f"no eligible choice for category {cat.name!r} in the frame for "
                f"[{'error' if special.error else 'single'}] choice {special.value!r}"
            )
        assignment[cat.name] = eligible[0].value
    if not _satisfied(special, assignment):
        raise TslError(
            f"conditions of special choice {special.value!r} are unsatisfiable: "
            f"{special.conditions}"
        )
    return assignment


def _frame_to_case(
    spec: TslSpec, frame: dict[str, str], partial: TestCase | None, error: bool
) -> TestCase:
    command = ""
    options: list[str] = []
    inputs: list[str] = []
    setup: list[str] = []
    for cat in spec.categories:
        value = frame[cat.name]
        if cat.name == "command":
            command = value
        elif cat.name == "options":
            options = value.split() if value != "none" else []
        elif cat.name == "inputs":
            inputs = value.split() if value != "none" else []
        else:
            setup.append(f"{cat.name}={value}")
    if partial is not None:
        if partial.command:
            command = partial.command
        if partial.options:
            options = list(partial.options)
        if partial.inputs:
            inputs = list(partial.inputs)
        if partial.setup:
            setup = list(partial.setup) + setup
    return TestCase(
        command=command, options=options, inputs=inputs, setup=setup, error=error
    )


def expand_tsl(spec: TslSpec, partial: TestCase | None = None) -> list[TestCase]:
    """Expand a spec into concrete frames; extracted elements override."""
    if not spec.categories:
        return []
    cases = [
        _frame_to_case(spec, frame, partial, error=False)
        for frame in _base_frames(spec)
    ]
    for cat in spec.categories:
        for choice in cat.choices:
            if choice.plain:
                continue
            frame = _special_frame(spec, cat, choice)
            cases.append(_frame_to_case(spec, frame, partial, error=choice.error))
    return cases
