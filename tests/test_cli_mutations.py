"""Seeded mutations of valid command-line input.

Each test starts from valid arguments and JSON documents (n <= 4),
applies one kind of mutation under fixed seeds, and runs every mutant
through `cli.main` in-process.  Every mutant is malformed by the
documented input format, so each must exit 2 with nothing on stdout,
an `error:` message on stderr and no traceback.
"""

import copy
import io
import json
import random
import signal
import sys

import pytest

from tpfact.cli import main

CASES_PER_KIND = 20

# decimal digits that int() and Fraction() read like ASCII ones: the
# zero of Arabic-Indic, Devanagari, fullwidth and mathematical bold
FOREIGN_ZEROS = ("\u0660", "\u0966", "\uff10", "\U0001d7ce")

MATRICES = [
    {"n": 2, "entries": [["5", "2"], ["2", "1"]]},
    {"entries": [["3", "2", "1"], ["2", "3", "2"], ["1", "2", "3"]]},
    {"n": 3, "entries": [["2", "1/2", "0"], ["1", "3/2", "-1"], ["0", "1", "4"]]},
    {"n": 4, "entries": [["1", "1", "0", "0"], ["1", "2", "1", "0"],
                         ["0", "1", "2", "1"], ["0", "0", "1", "2"]]},
]
MATRIX_COMMANDS = [
    ["cell"], ["twist"], ["check", "--mode", "all"],
    ["check", "--mode", "fekete1"], ["check", "--mode", "chamberset"],
]

SCHEMES = {
    "h1 f1 h2 e1": ["5", "2", "1/5", "2/5"],
    "e1 e2 e1 f1 f2 f1 h1 h2 h3": ["1", "2", "3", "1/2", "1/3", "1/4",
                                   "5", "6", "7"],
    "f2 e1 h3 f3 e3 e2 f1 h1 f2 e1 h4 h2 f1": [str(k) for k in range(1, 14)],
}

# (subcommand argv up to the permutation options, --u, --v); --matrix
# reads MATRICES[0]
PERMUTATION_COMMANDS = [
    (["enumerate"], "321", "21,3"),
    (["enumerate"], "4312", "1,2,3,4"),
    (["twist", "--matrix", "-"], "21", "21"),
    (["check", "--matrix", "-", "--mode", "chamberset"], "21", "2,1"),
]


# every case is an n <= 4 input that must be refused at once
CASE_SECONDS = 2


class CaseTimeout(Exception):
    pass


def _time_out(signum, frame):
    raise CaseTimeout(f"ran past {CASE_SECONDS} s")


def run_main(argv, stdin):
    """Exit code, stdout and stderr of one in-process run, which a
    real-time alarm stops after CASE_SECONDS."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin, sys.stdout, sys.stderr
    handler = signal.signal(signal.SIGALRM, _time_out)
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejected an option
        code = exc.code
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
        sys.stdin, sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def assert_rejected(argv, stdin=""):
    case = f"argv={argv!r} stdin={stdin[:200]!r}"
    try:
        code, out, err = run_main(argv, stdin)
    except Exception as exc:  # a traceback: the fault this module hunts
        pytest.fail(f"{case} raised {exc!r}")
    assert code == 2, f"{case} exited {code}: {out[:200]!r} {err[:200]!r}"
    assert out == "", case
    assert "Traceback" not in err, case
    if err.startswith("usage: tpfact "):  # argparse rejected an option
        assert "\ntpfact " in err and ": error: " in err, case
    else:
        assert err.startswith("error:"), case


def foreign_digit(rng, text):
    """text with one ASCII digit replaced by a digit of the same value
    from another script."""
    spots = [k for k, c in enumerate(text) if c.isascii() and c.isdigit()]
    k = rng.choice(spots)
    digit = chr(ord(rng.choice(FOREIGN_ZEROS)) + int(text[k]))
    return text[:k] + digit + text[k + 1:]


def digit_group(rng, text):
    """text with one ASCII digit d written as the digit group "0_d", which
    int() and Fraction() read as d."""
    spots = [k for k, c in enumerate(text) if c.isascii() and c.isdigit()]
    k = rng.choice(spots)
    return text[:k] + "0_" + text[k:]


def long_digits(rng):
    return "".join(rng.choice("123456789") for _ in range(rng.randint(4301, 5000)))


def long_literal(rng):
    digits = long_digits(rng)
    return rng.choice([digits, "-" + digits, "1/" + digits, digits + "/7"])


WRONG_TYPES = [True, False, 1, -2, 1.5, None, ["1"], {"p": "1"}]
BAD_LITERALS = ["", " ", "1e3", "2E-1", "1/0", "one", "1//2", "0x10", "nan",
                "inf", "1/2/3", "--1", "1 2", "\u00bd"]


def matrix_case(rng):
    doc = copy.deepcopy(rng.choice(MATRICES))
    command = rng.choice(MATRIX_COMMANDS)
    return doc, [command[0], "--matrix", "-", *command[1:]]


def random_entry(rng, doc):
    rows = doc["entries"]
    i = rng.randrange(len(rows))
    return rows[i], rng.randrange(len(rows[i]))


def mutate_entry_digit(rng, doc):
    row, j = random_entry(rng, doc)
    row[j] = foreign_digit(rng, row[j])


def mutate_entry_group(rng, doc):
    row, j = random_entry(rng, doc)
    row[j] = digit_group(rng, row[j])


def mutate_entry_type(rng, doc):
    row, j = random_entry(rng, doc)
    row[j] = copy.deepcopy(rng.choice(WRONG_TYPES))


def mutate_entry_literal(rng, doc):
    row, j = random_entry(rng, doc)
    row[j] = rng.choice(BAD_LITERALS + [long_literal(rng)])


def mutate_grid_shape(rng, doc):
    rows = doc["entries"]
    n = len(rows)
    choice = rng.randrange(4)
    if choice == 0:
        rows[rng.randrange(n)].pop()
    elif choice == 1:
        rows[rng.randrange(n)].append("1")
    elif choice == 2:
        rows.pop(rng.randrange(n))
    else:
        rows.append(["1"] * n)


def mutate_size(rng, doc):
    n = len(doc["entries"])
    doc["n"] = rng.choice([n + 1, n - 1, 0, -n, True, str(n), float(n), None, [n]])


def mutate_entries_container(rng, doc):
    choice = rng.randrange(3)
    if choice == 0:
        doc["entries"] = rng.choice([5, "12", {"a": "1"}, [], [[]], ["1", "2"], None])
    elif choice == 1:
        del doc["entries"]
    else:
        rows = doc["entries"]
        rows[rng.randrange(len(rows))] = rng.choice(["1 2", 12, {"0": "1"}, None])


MATRIX_MUTATIONS = {
    "entry-non-ascii-digit": mutate_entry_digit,
    "entry-digit-group": mutate_entry_group,
    "entry-wrong-type": mutate_entry_type,
    "entry-bad-literal": mutate_entry_literal,
    "grid-not-square": mutate_grid_shape,
    "size-wrong": mutate_size,
    "entries-malformed": mutate_entries_container,
}


@pytest.mark.parametrize("kind", sorted(MATRIX_MUTATIONS))
def test_mutated_matrix_exits_2(kind):
    rng = random.Random(f"matrix:{kind}")
    for _ in range(CASES_PER_KIND):
        doc, argv = matrix_case(rng)
        MATRIX_MUTATIONS[kind](rng, doc)
        assert_rejected(argv, json.dumps(doc))


def test_mutated_json_text_exits_2():
    rng = random.Random("json-text")
    for _ in range(CASES_PER_KIND):
        doc, argv = matrix_case(rng)
        text = json.dumps(doc)
        choice = rng.randrange(3)
        if choice == 0:
            # cut short: no prefix of an object is a JSON document
            text = text[:rng.randrange(1, len(text) - 1)]
        elif choice == 1:
            # a JSON integer past the digit bound
            text = '{"n": %s, "entries": [["1"]]}' % long_digits(rng)
        else:
            text = json.dumps(rng.choice([doc["entries"], "1", 2, None, [doc]]))
        assert_rejected(argv, text)


def mutate_param_digit(rng, t):
    k = rng.randrange(len(t))
    t[k] = foreign_digit(rng, t[k])


def mutate_param_group(rng, t):
    k = rng.randrange(len(t))
    t[k] = digit_group(rng, t[k])


def mutate_param_type(rng, t):
    t[rng.randrange(len(t))] = copy.deepcopy(rng.choice(WRONG_TYPES))


def mutate_param_literal(rng, t):
    t[rng.randrange(len(t))] = rng.choice(BAD_LITERALS + [long_literal(rng)])


def mutate_param_count(rng, t):
    if rng.randrange(2):
        t.pop(rng.randrange(len(t)))
    else:
        t.insert(rng.randrange(len(t) + 1), "1")


PARAM_MUTATIONS = {
    "param-non-ascii-digit": mutate_param_digit,
    "param-digit-group": mutate_param_group,
    "param-wrong-type": mutate_param_type,
    "param-bad-literal": mutate_param_literal,
    "param-count": mutate_param_count,
}


@pytest.mark.parametrize("kind", sorted(PARAM_MUTATIONS))
def test_mutated_parameters_exit_2(kind):
    rng = random.Random(f"params:{kind}")
    for _ in range(CASES_PER_KIND):
        scheme = rng.choice(sorted(SCHEMES))
        t = list(SCHEMES[scheme])
        PARAM_MUTATIONS[kind](rng, t)
        assert_rejected(["product", "--scheme", scheme, "--params", "-"],
                        json.dumps({"t": t}))


def test_mutated_parameter_document_exits_2():
    rng = random.Random("params-document")
    for _ in range(CASES_PER_KIND):
        scheme = rng.choice(sorted(SCHEMES))
        t = SCHEMES[scheme]
        doc = rng.choice([{"t": ",".join(t)}, {"t": 5}, {"t": {"0": t[0]}},
                          {"s": t}, t, None, {"t": None}])
        assert_rejected(["product", "--scheme", scheme, "--params", "-"],
                        json.dumps(doc))


def mutate_permutation(rng, text):
    parts = text.split(",") if "," in text else list(text)
    choice = rng.randrange(6)
    if choice == 0:
        return foreign_digit(rng, text)
    if choice == 5:
        return digit_group(rng, ",".join(parts))
    if choice == 1:
        # an empty part
        k = rng.randrange(len(parts) + 1)
        return ",".join(parts[:k] + [""] + parts[k:])
    if choice == 2:
        # a part repeated in place of another
        k = rng.randrange(len(parts))
        parts[k] = parts[k - 1]
        return ",".join(parts)
    if choice == 3:
        # a part out of range
        parts[rng.randrange(len(parts))] = rng.choice(["0", "-1", str(len(parts) + 1)])
        return ",".join(parts)
    return rng.choice(["", " ", ",", "x", "2,x", "+"])


def test_mutated_permutations_exit_2():
    rng = random.Random("permutations")
    for _ in range(2 * CASES_PER_KIND):
        command, u, v = rng.choice(PERMUTATION_COMMANDS)
        if rng.randrange(2):
            u = mutate_permutation(rng, u)
        else:
            v = mutate_permutation(rng, v)
        stdin = json.dumps(MATRICES[0]) if "--matrix" in command else ""
        assert_rejected([*command, "--u", u, "--v", v], stdin)


def mutate_scheme(rng, text):
    tokens = text.split()
    k = rng.randrange(len(tokens))
    choice = rng.randrange(5)
    if choice == 0:
        tokens[k] = foreign_digit(rng, tokens[k])
    elif choice == 1:
        # an unknown symbol kind
        tokens[k] = rng.choice("abgkxzEFH") + tokens[k][1:]
    elif choice == 2:
        tokens[k] = tokens[k][0] + rng.choice(
            ["", "0", "9", "-1", "1.0", long_digits(rng)])
    elif choice == 3:
        # a doubled letter or bullet: not reduced, or no permutation of
        # 1..n in the h-part
        tokens.insert(k, tokens[k])
    else:
        tokens.remove(next(tok for tok in tokens if tok.startswith("h")))
    return " ".join(tokens)


def test_mutated_schemes_exit_2():
    rng = random.Random("schemes")
    for _ in range(2 * CASES_PER_KIND):
        scheme = rng.choice(sorted(SCHEMES))
        mutant = mutate_scheme(rng, scheme)
        command = rng.randrange(3)
        if command == 0:
            assert_rejected(["render", "--scheme", mutant])
        elif command == 1:
            assert_rejected(["product", "--scheme", mutant, "--params", "-"],
                            json.dumps({"t": SCHEMES[scheme]}))
        else:
            assert_rejected(["check", "--matrix", "-", "--mode", "chamber",
                             "--scheme", mutant], json.dumps(MATRICES[0]))


def test_mutated_integer_options_exit_2():
    rng = random.Random("integer-options")
    for _ in range(CASES_PER_KIND):
        values = {"--n": "4", "--trials": "5", "--seed": "0"}
        option = rng.choice(sorted(values))
        values[option] = rng.choice([foreign_digit(rng, values[option]),
                                     digit_group(rng, values[option]),
                                     "", "x", "1.5", "4e1"])
        assert_rejected(["fuzz", *(a for pair in values.items() for a in pair)])
