"""Test-case element extraction and category-partition (TSL) expansion.

The TSL dialect is a minimal line-oriented subset::

    category <name>:
        choice <value>
        choice <value> [single]
        choice <value> [error]
        choice <value> [if <category>=<value>]

Plain choices multiply into the Cartesian product (filtered by [if]
constraints); every [single] or [error] choice instead contributes exactly
one extra frame: the first frame of the same search that takes it and
plain choices elsewhere.  Elements extracted from the bug report override
the same-named categories in every frame.  The categories named
``command``, ``options``, and ``inputs`` map onto the TestCase fields (the
literal choice value ``none`` means the empty list); other categories
become ``name=value`` setup actions.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from copy import copy
from dataclasses import dataclass, field
from itertools import islice

from .reports import BugReport

_PROMPT_RE = re.compile(r"^\s*[$%>]\s+(.*)$")
_QUOTED_RE = re.compile(r'"([^"\n]+)"|`([^`\n]+)`')
_NUMERIC_RE = re.compile(r"^\d+$")

#: The most frames a spec's plain choices may yield, and the most empty
#: subtrees one frame search may find; past either, the spec is refused.
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


def parse_tsl(text: str) -> list[Category]:
    choices: dict[str, dict[str, Choice]] = {}  # per category, its choices by value
    current: str | None = None  # the category the next choice belongs to
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("category ") and line.endswith(":"):
            name = line[len("category "):-1].strip()
            if not name:
                raise TslError(f"line {lineno}: empty category name")
            if name in choices:
                raise TslError(f"line {lineno}: category {name!r} declared twice")
            current = name
            choices[name] = {}
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
            if rest in choices[current]:
                raise TslError(
                    f"line {lineno}: choice {rest!r} repeated in category {current!r}"
                )
            choices[current][rest] = _parse_tags(raw_tags, rest)
            continue
        raise TslError(f"line {lineno}: unrecognized line {line!r}")

    categories = [Category(name=name, choices=list(by_value.values()))
                  for name, by_value in choices.items()]
    for cat in categories:
        if not cat.choices:
            raise TslError(f"category {cat.name!r} has no choices")

    for cat in categories:
        for choice in cat.choices:
            for ref_cat, ref_val in choice.conditions:
                if ref_cat not in choices:
                    raise TslError(
                        f"choice {choice.value!r} references unknown category {ref_cat!r}"
                    )
                if ref_val not in choices[ref_cat]:
                    raise TslError(
                        f"choice {choice.value!r} references unknown choice "
                        f"{ref_cat}={ref_val!r}"
                    )
    return categories


def _fits(a: str, v: Choice, b: str, w: Choice) -> bool:
    """Whether choice ``v`` of category ``a`` and ``w`` of ``b`` can share a
    frame: neither's conditions name the other's category with another value."""
    return (all(val == w.value for cat, val in v.conditions if cat == b)
            and all(val == v.value for cat, val in w.conditions if cat == a))


def _frames(spec: list[Category], values: list[list[str]]) -> Iterator[dict[str, str]]:
    """The frames that give each category one of its ``values`` and satisfy
    every [if] condition of their choices, in product order (last category
    fastest).  The spec has at least one category (``expand_tsl`` returns
    no case for an empty one before it searches).

    Every condition is checked by one pairwise rule, ``_fits``, between the
    categories it links (a condition on its own category links a choice to
    itself).  Arc consistency first drops each value that fits no value left
    of a linked category; the depth-first search in declaration order then
    tries only the values left: each choice keeps, of every later linked
    category, the values that fit it, and its branch is cut once one has
    none left (forward checking).  A subtree found empty is remembered by
    its depth and the values its assigned choices left to the categories at
    or after that depth that link to another one there (the rest only need
    a value left, which forward checking keeps), and is not searched again.
    Only branches with no frame are cut; past ``MAX_FRAMES`` empty subtrees
    the search raises ``TslError`` (whether any frame exists is NP-complete).
    """
    names = [cat.name for cat in spec]
    depth_of = {name: depth for depth, name in enumerate(names)}
    domains: list[list[Choice]] = []
    links: list[set[int]] = [set() for _ in names]
    for depth, (cat, cat_values) in enumerate(zip(spec, values)):
        by_value = {choice.value: choice for choice in cat.choices}
        domains.append([by_value[value] for value in cat_values])
        for choice in domains[depth]:
            for ref, _ in choice.conditions:
                links[depth].add(depth_of[ref])
                links[depth_of[ref]].add(depth)
    furthest_other = [max(linked - {e}, default=-1) for e, linked in enumerate(links)]
    arcs = [(a, b) for a, linked in enumerate(links) for b in linked]
    dead: dict[int, set[frozenset[tuple[int | str, ...]]]] = {}  # per depth, its subtrees found empty
    while arcs:
        a, b = arcs.pop()
        kept = [v for v in domains[a] if any(
            _fits(names[a], v, names[b], w) for w in ((v,) if a == b else domains[b]))]
        if len(kept) < len(domains[a]):
            domains[a] = kept
            arcs.extend((c, a) for c in links[a])
    if not all(domains):
        return

    def cut(e: int, depth: int) -> bool:
        # keep the values of category e that fit the choice at depth; whether any is left
        kept = [w for w in domains[e] if _fits(names[depth], chosen[depth], names[e], w)]
        if len(kept) < len(domains[e]):
            trail.append((e, domains[e]))
            domains[e] = kept
        return bool(kept)

    def memo_key(depth: int) -> frozenset[tuple[int | str, ...]]:
        # the values left to each category at or after depth that an assigned
        # choice cut and that links to another category there
        return frozenset((e, *(w.value for w in domains[e]))
                         for e, _ in trail if e >= depth and furthest_other[e] >= depth)

    chosen: list[Choice] = []  # per assigned category, its choice
    untried = [iter(domains[0])]  # per open category, its values not yet tried
    trail: list[tuple[int, list[Choice]]] = []  # each domain an assigned choice cut, and its values before
    opened = [(0, 0)]  # per open category, the frames found and the cuts made before it opened
    found = empty = 0
    while untried:
        depth = len(untried) - 1
        while len(trail) > opened[depth][1]:
            e, values = trail.pop()
            domains[e] = values
        choice = next(untried[depth], None)
        if choice is None:
            untried.pop()
            if found == opened.pop()[0]:
                dead.setdefault(depth, set()).add(memo_key(depth))
                empty += 1
                if empty > MAX_FRAMES:
                    raise TslError(f"the frame search found more than {MAX_FRAMES} empty subtrees")
            continue
        chosen[depth:] = [choice]
        if links[depth] and not all(cut(e, depth) for e in links[depth] if e > depth):
            continue
        if depth + 1 == len(names):
            found += 1
            yield {name: c.value for name, c in zip(names, chosen)}
            continue
        if depth + 1 in dead and memo_key(depth + 1) in dead[depth + 1]:
            continue
        opened.append((found, len(trail)))
        untried.append(iter(domains[depth + 1]))


def _plain_values(spec: list[Category]) -> list[list[str]]:
    return [[c.value for c in cat.choices if c.plain] for cat in spec]


def _base_frames(spec: list[Category]) -> list[dict[str, str]]:
    """The frames of the plain choices, refused past ``MAX_FRAMES``."""
    frames = list(islice(_frames(spec, _plain_values(spec)), MAX_FRAMES + 1))
    if len(frames) > MAX_FRAMES:
        raise TslError(f"plain choices yield more than {MAX_FRAMES} frames")
    return frames


def _frame_to_case(frame: dict[str, str], partial: TestCase | None, error: bool) -> TestCase:
    """The case of one frame, whose categories come in declaration order."""
    case = TestCase(command=frame.get("command", ""), error=error)
    for name, value in frame.items():
        if name in ("options", "inputs"):
            setattr(case, name, [] if value == "none" else value.split())
        elif name != "command":
            case.setup.append(f"{name}={value}")
    for name in ("command", "options", "inputs"):
        if partial is not None and getattr(partial, name):
            setattr(case, name, copy(getattr(partial, name)))  # the case owns its lists
    return case


def expand_tsl(spec: list[Category], partial: TestCase | None = None) -> list[TestCase]:
    """Expand a spec into concrete frames; the partial's command, options
    and inputs, where set, override every frame's (its setup is not read)."""
    if not spec:
        return []
    cases = [_frame_to_case(frame, partial, error=False) for frame in _base_frames(spec)]
    plain = _plain_values(spec)
    for depth, cat in enumerate(spec):
        for choice in cat.choices:
            if choice.plain:
                continue
            # the first frame that takes this choice and plain ones elsewhere
            values = [*plain[:depth], [choice.value], *plain[depth + 1:]]
            frame = next(_frames(spec, values), None)
            if frame is None:
                raise TslError(
                    f"no frame satisfies the conditions for "
                    f"[{'error' if choice.error else 'single'}] choice "
                    f"{choice.value!r} of category {cat.name!r}"
                )
            cases.append(_frame_to_case(frame, partial, error=choice.error))
    return cases
