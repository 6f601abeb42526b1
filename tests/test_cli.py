"""Command-line surface: output goldens, exit codes, JSON round trips."""

import contextlib
import gc
import hashlib
import io
import json
import operator
import os
import re
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from porcfield import (
    count_at,
    exponent_space_count,
    parse_system,
    synthesize_counting_function,
    synthesize_gcd_function,
)
from porcfield.cli import main
from porcfield.jsonio import (
    counting_function_from_dict,
    counting_function_to_dict,
    dumps,
    gcd_function_from_dict,
    gcd_function_to_dict,
    table_to_dict,
)
from porcfield.polynomial import IntPoly, parse_poly
from porcfield.porc import GcdPorcFunction, PorcExpression, porc_to_residue_table
from porcfield.system import CountingFunction

from conftest import CORPUS, QUADRATIC_TEXT


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "quadratic.mono"
    path.write_text(QUADRATIC_TEXT)
    return str(path)


# small systems whose exponents are huge; each of these answers
PINNED_HUGE_EXPONENTS = {
    "exponent-q400": "field GF(q^1); vars x; eq x^(q^400-1) = 1",
    "degree-42-three-unknowns": (
        "field GF(q^2); vars x, y, z; eq x^(q^42-q^30)*y^(q^31+7) = 1; "
        "eq y^(5*q^36-1)*z^(q^40+q) = 1; neq x^(q^33-2)*z^(3*q^30) = 1"
    ),
    "forty-digit-coefficient": (
        "field GF(q^1); vars x, y; eq x^(1234567890123456789012345678901234567890*q+6)*y^4 = 1"
    ),
    # pseudo-division by the monic q^n - 1 must stay linear in the degree
    "exponent-q30000": "field GF(q^1); vars x; eq x^(q^30000) = 1",
    # reduced modulo q^n - 1, these no longer grow the synthesis's integers
    "forty-digit-coefficients-next-to-q54": (
        "field GF(q^1); vars x, y, z; "
        "eq y^(1*q^31-1*q^32)*x^(1*q^51)*z^(1*q^8+1*q^54) = 1; eq y^(-1*q^13)*z^(1*q^42) = 1; "
        "neq x^(-1*q^37+1*q^53-6840552534495890530471766855222497288907*q^12)"
        "*y^(8120336243773584522198953246822897194513*q^28+1*q^49) = 1"
    ),
    "exponent-q1000000": "field GF(q^1); vars x; eq x^(q^1000000) = 1",
}

_DIGIT = st.integers(-9, 9).filter(bool)
_WIDE = st.integers(-(10**40), 10**40)
# Either up to two powers of q of degree up to 60, each with a coefficient of
# one digit or of up to 40 digits, plus a constant, or a linear exponent with
# coefficients of up to 40 digits.
_HIGH_DEGREE = st.builds(
    lambda terms, c: "+".join(f"{a}*q^{d}" for a, d in terms) + f"+{c}",
    st.lists(st.tuples(_DIGIT | _WIDE.filter(bool), st.integers(2, 60)), min_size=1, max_size=2),
    st.integers(-9, 9),
)
_WIDE_LINEAR = st.builds(lambda a, c: f"{a}*q+{c}", _WIDE.filter(bool), _WIDE)


@st.composite
def huge_exponent_systems(draw):
    """Text of a system over GF(q^1) or GF(q^2) in one to three unknowns."""
    n = draw(st.integers(1, 2))
    names = ["x", "y", "z"][: draw(st.integers(1, 3))]
    exponents = draw(st.sampled_from([_HIGH_DEGREE, _WIDE_LINEAR]))

    def monomial():
        chosen = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
        return "*".join(f"{v}^({draw(exponents)})".replace("+-", "-") for v in chosen)

    relations = [f"eq {monomial()} = 1" for _ in range(draw(st.integers(1, 2)))]
    relations += [f"neq {monomial()} = 1" for _ in range(draw(st.integers(0, 1)))]
    return f"field GF(q^{n}); vars {', '.join(names)}; " + "; ".join(relations)


class TestSynthesize:
    def test_text_golden(self, system_file, capsys):
        assert main(["synthesize", system_file]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "gcd(q-1,2)*(q^2-1) - gcd(q-1,2)*(q-1)"

    def test_json_round_trips(self, system_file, capsys):
        assert main(["synthesize", system_file, "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        cf = counting_function_from_dict(data)
        expected = synthesize_counting_function(parse_system(QUADRATIC_TEXT))
        assert cf == expected

    def test_inline_text_input(self, capsys):
        assert main(["synthesize", "--text", "field GF(q^2); vars x"]) == 0
        assert capsys.readouterr().out.strip() == "q^2-1"

    def test_equation_order_does_not_change_output(self, capsys):
        eqs = [
            "eq x1^(3*q-4)*x2^(q+2) = 1",
            "eq x1^(3*q)*x2^(-q) = 1",
            "eq x1^(2*q-2)*x2^(3*q-1) = 1",
        ]
        outputs = []
        for order in (eqs, eqs[::-1]):
            text = "field GF(q^2); vars x1, x2; " + "; ".join(order)
            assert main(["synthesize", "--text", text]) == 0
            outputs.append(capsys.readouterr().out.strip())
        assert outputs == ["gcd(q-3,4)", "gcd(q-3,4)"]

    @pytest.mark.parametrize(
        "text", PINNED_HUGE_EXPONENTS.values(), ids=PINNED_HUGE_EXPONENTS.keys()
    )
    def test_small_systems_with_huge_exponents_answer_quickly(self, text):
        # these answer within seconds, and the closed form agrees with
        # count_at and the exponent oracle wherever the oracle fits
        code, out, err = _synthesize_within_five_seconds(text)
        assert code == 0, err
        _assert_answer_agrees_with_oracles(text, out)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(huge_exponent_systems())
    def test_small_systems_with_huge_exponents_answer_or_refuse_quickly(self, text):
        # a small input must answer or refuse within seconds, whatever its
        # exponents' degree or size
        code, out, err = _synthesize_within_five_seconds(text)
        if code == 2:
            # a modulus without small factors: the refusal names its cap
            assert re.match(r"error: .+ exceeds? [A-Z_]+ = \d+", err), err
            return
        assert code == 0, err
        _assert_answer_agrees_with_oracles(text, out)


def _synthesize_within_five_seconds(text):
    """Exit code, stdout and stderr of `synthesize --text text`, run in process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["synthesize", "--text", text])
    assert time.perf_counter() - start < 5
    return code, out.getvalue(), err.getvalue()


_VERIFIED_ONE = "".join(f"q={q} count=1 ok ({2 if q == 6 else 3} checks)\n" for q in range(2, 10))


@pytest.mark.parametrize(
    "argv, expected",
    [(["count", "--q", "2"], "1\n"), (["verify", "--q-range", "2:9"], _VERIFIED_ONE)],
    ids=["count", "verify"],
)
def test_exponent_q1000000_counts_and_verifies_quickly(argv, expected, capsys):
    # count_at reduces the exponent modulo q - 1; the oracles evaluate it as
    # written, with one power of q for the run of a million zero coefficients
    start = time.perf_counter()
    code = main([*argv, "--text", PINNED_HUGE_EXPONENTS["exponent-q1000000"]])
    assert time.perf_counter() - start < 5
    assert (code, capsys.readouterr().out) == (0, expected)


def _assert_answer_agrees_with_oracles(text, out):
    system = parse_system(text)
    cf = synthesize_counting_function(system)
    assert out.strip() == cf.render()
    for q0 in (2, 3, 4, 5, 7, 9):
        assert cf(q0) == count_at(system, q0) == exponent_space_count(system, q0), q0


class TestCount:
    def test_text(self, system_file, capsys):
        assert main(["count", system_file, "--q", "3"]) == 0
        assert capsys.readouterr().out.strip() == "12"

    def test_json(self, system_file, capsys):
        assert main(["count", system_file, "--q", "5", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"q": 5, "count": 40}

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="no int-to-str limit before Python 3.10.7",
    )
    @pytest.mark.parametrize(
        "extra", [["--q", "Q"], ["--q", "Q", "--format", "json"], ["--q-range", "Q:Q"]]
    )
    def test_count_past_the_int_to_str_limit(self, extra, capsys):
        # (q^2 - 1)^3 has 6001 digits at this q, more than the 4300 that
        # Python's int-to-str conversion allows by default
        text, q = "field GF(q^2); vars x, y, z", 10**1000 + 1
        command = "verify" if "--q-range" in extra else "count"
        argv = [command, "--text", text, *[arg.replace("Q", str(q)) for arg in extra]]
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            assert main(argv) == 0
            assert sys.get_int_max_str_digits() == 4300
            out = capsys.readouterr().out
            number = max(re.findall(r"\d+", out), key=len)  # the count is the longest
            sys.set_int_max_str_digits(0)  # to read the number back
            assert len(number) == 6001
            assert int(number) == count_at(parse_system(text), q)
        finally:
            sys.set_int_max_str_digits(saved)


class TestGcdPorc:
    def test_json_golden(self, tmp_path, capsys):
        path = tmp_path / "family.txt"
        path.write_text("x^2+x\nx^2-x\n")
        assert main(["gcd-porc", str(path), "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "f": [0, 1],
            "d": {"alpha": "0", "terms": [{"coeff": "1", "n": 1, "m": 2}]},
            "m": 2,
        }

    def test_text_render(self, capsys):
        assert main(["gcd-porc", "--text", "x^2+x\nx^2-x"]) == 0
        assert capsys.readouterr().out.strip() == "gcd(x-1,2)*x"

    def test_singular_lift_past_twenty_thousand_classes_answers(self, capsys):
        # 20011 classes mod 20011^2 and one mod 20011: d keeps 20012 terms
        assert main(["gcd-porc", "--text", "x^2\nx^2+400440121"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("(-20010*gcd(x,20011)+gcd(x,400440121)+gcd(x-20011,400440121)+")
        assert out.count("gcd(") == 20012

    def test_zero_shift_prints_one_term(self, capsys):
        assert main(["gcd-porc", "--text", "x\n10007"]) == 0
        assert capsys.readouterr().out == "gcd(x,10007)\n"
        assert main(["gcd-porc", "--text", "x\n10007", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["d"]["terms"] == [
            {"coeff": "1", "n": 0, "m": 10007}
        ]

    def test_bad_polynomial_exits_1(self, capsys):
        assert main(["gcd-porc", "--text", "x^"]) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_input_exits_1(self, capsys):
        assert main(["gcd-porc", "--text", "  \n# nothing\n"]) == 1

    def test_bad_polynomial_reports_its_input_line(self, capsys):
        assert main(["gcd-porc", "--text", "x^2+x\n  x^2-"]) == 1
        assert capsys.readouterr().err == "error: line 2, column 7: malformed polynomial\n"

    def test_first_identifier_binds_every_line(self, capsys):
        assert main(["gcd-porc", "--text", "p^2+p\ny^2-y"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: line 2, column 1: conflicting variable names 'p' and 'y'\n"
        )

    def test_constant_lines_keep_the_indeterminate_open(self, capsys):
        assert main(["gcd-porc", "--text", "6\np^2+p\n\n# note\n2*p"]) == 0
        assert main(["gcd-porc", "--text", "6\nx^2+x\n2*x"]) == 0
        first, second = capsys.readouterr().out.splitlines()
        assert first == second


class TestTable:
    def test_text(self, system_file, capsys):
        assert main(["table", system_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines == ["modulus 2", "0: q^2-q", "1: 2*q^2-2*q"]

    def test_json(self, system_file, capsys):
        assert main(["table", system_file, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "modulus": 2,
            "classes": [[0, -1, 1], [0, -2, 2]],
        }


class TestVerify:
    def test_default_range_passes(self, system_file, capsys):
        assert main(["verify", system_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 8  # q = 2..9
        assert all("ok" in line for line in lines)

    def test_whole_corpus_verifies(self, tmp_path, capsys, monkeypatch):
        import porcfield.ffield as ffield_mod
        from conftest import CORPUS, CORPUS_TEXTS

        def is_prime_power(q):
            p = next(d for d in range(2, q + 1) if q % d == 0)
            while q % p == 0:
                q //= p
            return q == 1

        for (name, text), cap in product(CORPUS_TEXTS.items(), (10**6, 1000)):
            path = tmp_path / f"{name}.mono"
            path.write_text(text)
            monkeypatch.setattr(ffield_mod, "MAX_TUPLES", cap)
            assert main(["verify", str(path), "--q-range", "2:16"]) == 0, name
            system = CORPUS[name]
            expected = []
            for q in range(2, 17):
                # the closed form, the exponent oracle where its tuples fit the
                # cap, and the field oracle where q is also a prime power
                fits = (q**system.n - 1) ** system.k <= cap
                checks = 1 + fits + (fits and is_prime_power(q))
                expected.append(f"q={q} count={count_at(system, q)} ok ({checks} checks)")
            assert capsys.readouterr().out.splitlines() == expected, (name, cap)

    def test_corpus_verify_and_table_output_is_pinned(self, capsys):
        from conftest import CORPUS_TEXTS

        # every "(N checks)" line of verify and every table row, byte for byte
        digest = hashlib.sha256()
        for text in CORPUS_TEXTS.values():
            for argv in (["verify", "--q-range", "2:16", "--text", text], ["table", "--text", text]):
                code = main(argv)
                digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == (
            "58c9ea0bdb28eff28741d3f9c1eae7d019e3615b93de594304983361b80a96d3"
        )

    def test_corpus_synthesize_output_is_pinned(self, capsys):
        from conftest import CORPUS_TEXTS

        # the printed formula and its JSON, byte for byte
        digest = hashlib.sha256()
        for text in CORPUS_TEXTS.values():
            for fmt in ("text", "json"):
                code = main(["synthesize", "--format", fmt, "--text", text])
                digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == (
            "19e1e6e7f7fd31bc667a51b8ddc4e98df4ed9280092a1372baa23ddb46779596"
        )

    def test_large_prime_q_skips_the_field_oracle_unfactored(self, capsys, monkeypatch):
        import porcfield.ffield as ffield_mod

        # q^n - 1 tuples exceed the cap, so q is never factored
        monkeypatch.setattr(ffield_mod, "split_prime_power", lambda q: pytest.fail("factored q"))
        text = "field GF(q^1); vars x; eq x^2 = 1"
        q = "100000000000031"
        assert main(["verify", "--text", text, "--q-range", f"{q}:{q}"]) == 0
        assert capsys.readouterr().out == f"q={q} count=2 ok (1 checks)\n"

    def test_mismatch_exits_3(self, system_file, capsys, monkeypatch):
        import porcfield.cli as cli_mod

        monkeypatch.setattr(cli_mod, "count_at", lambda *a, **kw: 1)
        assert main(["verify", system_file, "--q-range", "3:3"]) == 3
        out = capsys.readouterr()
        assert "MISMATCH" in out.out

    def test_field_oracle_value_error_exits_3(self, system_file, capsys, monkeypatch):
        import porcfield.cli as cli_mod

        def broken(system, q0, **kw):
            raise ValueError("broken oracle")

        monkeypatch.setattr(cli_mod, "brute_force_count", broken)
        # q = 6 is not a prime power, so the field oracle has no field to build
        assert main(["verify", system_file, "--q-range", "6:6"]) == 0
        assert capsys.readouterr().out.endswith(" ok (2 checks)\n")
        # at the prime power q = 3 the same error is a failure, not a skipped check
        assert main(["verify", system_file, "--q-range", "3:3"]) == 3
        captured = capsys.readouterr()
        assert "ok (2 checks)" not in captured.out
        assert "internal consistency error: field oracle failed at q=3: broken oracle" in (
            captured.err
        )

    def test_bad_range_exits_1(self, system_file, capsys):
        assert main(["verify", system_file, "--q-range", "9:2"]) == 1
        assert main(["verify", system_file, "--q-range", "abc"]) == 1


class TestExitCodes:
    def test_parse_error_is_1(self, capsys):
        assert main(["synthesize", "--text", "field GF(q^2); vars x; eq x^(q+) = 1"]) == 1
        err = capsys.readouterr().err
        assert "line 1, column 32" in err

    def test_scale_cap_is_2(self, capsys):
        text = "field GF(q^1); vars x; " + " ".join(
            f"neq x^{i + 2} = 1;" for i in range(21)
        )
        assert main(["count", "--text", text, "--q", "3"]) == 2
        assert "blow-up" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synthesize", "count", "table", "verify"])
    def test_work_budget_is_2(self, command, capsys):
        text = "field GF(q^1); vars x; " + "".join(f"neq x^{i + 2} = 1;" for i in range(21))
        extra = ["--q", "3"] if command == "count" else []
        assert main([command, "--text", text, *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "24117248 family members (k=1, e=0, s=21) exceed WORK_BUDGET" in captured.err

    def test_porc_size_cap_is_2(self, capsys, monkeypatch):
        import porcfield.porc as porc_mod

        monkeypatch.setattr(porc_mod, "TERM_BUDGET", 1)
        assert main(["gcd-porc", "--text", "x^2\nx^2+4"]) == 2
        assert "TERM_BUDGET" in capsys.readouterr().err

    def test_invariant_failure_is_3(self, capsys, monkeypatch):
        import porcfield.porc as porc_mod

        # a CRT that returns the product modulus, an unreduced shift, breaks
        # the invariants the synthesis checks
        monkeypatch.setattr(porc_mod, "_crt", lambda r1, m1, r2, m2: m1 * m2)
        assert main(["gcd-porc", "--text", "x^2+x\nx^2-x"]) == 3
        assert "internal consistency error: shift 2 outside [0, 2)" in capsys.readouterr().err

    def test_gcd_not_dividing_is_3(self, capsys, monkeypatch):
        import porcfield.porc as porc_mod

        wrong = (parse_poly("x+2"), 2)
        monkeypatch.setattr(porc_mod, "_gcd_fold", lambda fs: wrong)
        assert main(["gcd-porc", "--text", "x^2+x\nx^2-x"]) == 3
        err = capsys.readouterr().err
        assert "internal consistency error: the polynomial gcd does not divide" in err

    def test_missing_input_is_1(self, capsys):
        assert main(["count", "--q", "3"]) == 1

    def test_source_and_text_is_1(self, capsys):
        argv = ["synthesize", "no-such-file.mono", "--text", "field GF(q^2); vars x"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'no-such-file.mono'" in captured.err and "--text" in captured.err

    def test_table_row_cap_is_2(self, system_file, capsys, monkeypatch):
        import porcfield.porc as porc_mod

        monkeypatch.setattr(porc_mod, "TABLE_ROW_CAP", 1)
        assert main(["table", system_file]) == 2
        assert "exceeds TABLE_ROW_CAP = 1" in capsys.readouterr().err

    def test_missing_file_is_1(self, capsys):
        assert main(["count", "/nonexistent/path.mono", "--q", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: [Errno 2] No such file or directory: '/nonexistent/path.mono'\n"
        )

    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as info:
            main(["count", "--q", "not-a-number"])
        assert info.value.code == 1

    def test_zero_enumeration_cap_skips_both_oracles(self, capsys, monkeypatch):
        import porcfield.ffield as ffield_mod

        monkeypatch.setattr(ffield_mod, "MAX_TUPLES", 0)
        argv = ["verify", "--text", "field GF(q^1); vars x"]
        assert main([*argv, "--q-range", "2:3"]) == 0
        assert capsys.readouterr().out == "q=2 count=1 ok (1 checks)\nq=3 count=2 ok (1 checks)\n"


def _fresh_run(*args):
    """A new interpreter that imports porcfield from src/, run to completion on args."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=60
    )


def _fresh_python(code, *args):
    """Stdout of `code` run by a new interpreter that imports porcfield from src/."""
    result = _fresh_run("-c", code, *args)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


# modules a cold process must not pay for: numpy and sympy are not dependencies,
# dataclasses pulls in inspect, ast, dis and tokenize, fractions pulls in decimal
# (every coefficient is an int), argparse pulls in gettext and, on its first
# message, locale, and json compiles its decoder's regexes on import
UNLOADED = (
    "{'numpy', 'sympy', 'dataclasses', 'inspect', 'fractions', 'decimal',"
    " 'argparse', 'gettext', 'locale', 'json'}"
)


def test_cli_import_leaves_numpy_and_sympy_unloaded():
    code = f"import sys, porcfield.cli; print(sorted({UNLOADED} & set(sys.modules)))"
    assert _fresh_python(code) == "[]"


def test_subcommands_never_load_numpy_or_sympy(system_file):
    # the Bezout modulus is factored, the exponent oracle counts and the JSON is
    # written in the package; the runs are spliced into the code, so the driver
    # imports no json itself
    text_runs = [
        ["synthesize", system_file],
        ["count", system_file, "--q", "3"],
        ["table", system_file],
        ["verify", system_file, "--q-range", "2:5"],
        ["gcd-porc", "--text", "x^5-3*x^2+7\n2*x^4+x-9"],
    ]
    json_runs = [
        [*argv, "--format", "json"] for argv in text_runs if argv[0] != "verify"
    ]
    code = (
        "import contextlib, io, sys\n"
        "from porcfield.cli import main\n"
        "def run(runs, unloaded):\n"
        "    for argv in runs:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            assert main(argv) == 0, argv\n"
        "    print(sorted(unloaded & set(sys.modules)))\n"
        f"run({text_runs!r}, {UNLOADED})\n"
        f"run({json_runs!r}, {UNLOADED})\n"
    )
    assert _fresh_python(code).splitlines() == ["[]", "[]"]


@pytest.mark.parametrize(
    "argv",
    [
        ["synthesize", "SYSTEM"],
        ["synthesize", "SYSTEM", "--format", "json"],
        ["count", "SYSTEM", "--q", "7"],
        ["table", "SYSTEM"],
        ["verify", "SYSTEM", "--q-range", "2:5"],
        ["gcd-porc", "--text", "x^2+x\nx^2-x"],
        ["-h"],
        ["synthesize", "--format", "xml"],
        ["gcd-porc", "--text", "x^4\n418161601"],
    ],
    ids=["synthesize", "synthesize-json", "count", "table", "verify", "gcd-porc",
         "help", "usage-error", "cap-refusal"],
)
def test_cold_process_entry_matches_main(argv, system_file, capsys):
    # `python -m porcfield.cli` freezes its start-up heap before dispatch;
    # what it prints and returns is what main(argv) does in process
    argv = [system_file if arg == "SYSTEM" else arg for arg in argv]
    cold = _fresh_run("-m", "porcfield.cli", *argv)
    try:
        code = main(argv)
    except SystemExit as exc:  # -h and usage errors leave main this way
        code = exc.code
    captured = capsys.readouterr()
    assert (cold.returncode, cold.stdout, cold.stderr) == (code, captured.out, captured.err)


def test_only_the_process_entry_freezes_the_heap(capsys):
    argv = ["count", "--text", "field GF(q^1); vars x", "--q", "2"]
    before = gc.get_freeze_count()
    assert main(argv) == 0
    assert gc.get_freeze_count() == before
    code = (
        "import gc, sys\n"
        "from porcfield.cli import main\n"
        f"sys.argv = ['porcfield', *{argv!r}]\n"
        "before = gc.get_freeze_count()\n"
        "main()\n"
        "print(before, gc.get_freeze_count() > 0)\n"
    )
    assert _fresh_python(code).splitlines() == ["1", "0 True"]


class TestOptions:
    # each subcommand takes only the options it reads
    REMOVED = [
        ("synthesize", "--max-enum", "5"),
        ("count", "--max-enum", "5"),
        ("gcd-porc", "--max-enum", "5"),
        ("table", "--max-enum", "5"),
        ("gcd-porc", "--max-neq", "5"),
        ("verify", "--format", "json"),
        ("synthesize", "--max-neq", "5"),
        ("count", "--max-neq", "5"),
        ("table", "--max-neq", "5"),
        ("verify", "--max-neq", "5"),
        ("verify", "--max-enum", "5"),
    ]
    KEPT = [
        ("synthesize", "--format", "json"),
        ("count", "--format", "json"),
        ("gcd-porc", "--format", "json"),
        ("table", "--format", "json"),
    ]

    @staticmethod
    def _argv(command, flag, value):
        text = "x^2+x\nx^2-x" if command == "gcd-porc" else QUADRATIC_TEXT
        extra = ["--q", "3"] if command == "count" else []
        return [command, "--text", text, *extra, flag, value]

    @pytest.mark.parametrize("command, flag, value", REMOVED)
    def test_removed_option_is_usage_error(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as info:
            main(self._argv(command, flag, value))
        assert info.value.code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", KEPT)
    def test_kept_option_works(self, command, flag, value, capsys):
        assert main(self._argv(command, flag, value)) == 0
        assert capsys.readouterr().out


LINE = "field GF(q^1); vars x"
ARGV_CASES = [
    ([], 1, "porcfield: error: no subcommand"),
    (["frobnicate", "--text", LINE], 1, "porcfield: error: invalid subcommand 'frobnicate'"),
    (["count", "--text", LINE], 1, "the following arguments are required: --q"),
    (["count", "--text", LINE, "--q", "x"], 1, "argument --q: invalid literal for int()"),
    (["count", "--text", LINE, "--q", "3", "--format", "xml"], 1,
     "argument --format: invalid choice: 'xml' (choose from 'text', 'json')"),
    (["count", "--text", LINE, "--q"], 1, "argument --q: expected one argument"),
    (["count", "--text", LINE, "--q=3", "--format=json"], 0, '{"q": 3, "count": 2}\n'),
    (["count", "-", "--q", "5"], 0, "4\n"),
    (["synthesize", "a.mono", "b.mono"], 1, "unrecognized arguments: b.mono"),
    # argparse took a unique prefix; options are now spelled in full
    (["count", "--text", LINE, "--q", "3", "--form", "json"], 1, "unrecognized arguments: --form"),
    (["-h"], 0, "usage: porcfield {synthesize,count,gcd-porc,table,verify}"),
    (["--help"], 0, "  gcd-porc    closed form of a gcd of polynomial values"),
    (["synthesize", "-h"], 0, "usage: porcfield synthesize [SOURCE] [--text TEXT] [--format"),
    (["count", "--help"], 0, "[--format text|json] --q Q\n"),
    (["gcd-porc", "-h"], 0, "usage: porcfield gcd-porc [SOURCE] [--text TEXT]"),
    (["table", "--text", LINE, "-h"], 0, "usage: porcfield table [SOURCE]"),
    (["verify", "-h"], 0, "[--q-range LO:HI]\n"),
]


@pytest.mark.parametrize("argv, code, expected", ARGV_CASES)
def test_argument_reader(argv, code, expected, capsys, monkeypatch):
    # a usage error or help exits through SystemExit; a run returns its code
    monkeypatch.setattr(sys, "stdin", io.StringIO(LINE))
    try:
        status = main(argv)
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    assert status == code
    if code:
        assert captured.out == ""
        assert captured.err.startswith("usage: porcfield")
        assert expected in captured.err.splitlines()[-1]
    else:
        assert captured.err == ""
        assert expected in captured.out


class TestJsonRoundTrips:
    def test_gcd_function(self):
        g = synthesize_gcd_function([parse_poly("x^2+x"), parse_poly("x^2-x")])
        assert gcd_function_from_dict(gcd_function_to_dict(g)) == g

    @pytest.mark.parametrize("sign", [2, 0, -2, 1.5, True])
    def test_counting_function_refuses_a_sign_other_than_one(self, sign):
        g = {"f": [-1, 1], "d": {"alpha": "1", "terms": []}, "m": 1}
        data = {"terms": [{"sign": 1, "g": g}, {"sign": sign, "g": g}]}
        with pytest.raises(ValueError, match=f"term 1 has sign {sign}; a term's sign is 1 or -1"):
            counting_function_from_dict(data)

    def test_counting_function(self, corpus):
        for system in corpus.values():
            cf = synthesize_counting_function(system)
            data = json.loads(json.dumps(counting_function_to_dict(cf)))
            assert counting_function_from_dict(data) == cf

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("m",), 1.9, "m is 1.9; expected an integer"),
            (("m",), True, "m is True; expected an integer"),
            (("d", "terms", 0, "m"), 2.5, "m is 2.5; expected an integer"),
            (("d", "terms", 0, "n"), "1", "n is '1'; expected an integer"),
            (("f", 0), -1.7, "coefficient 0 is -1.7; expected an integer"),
            (("f", 1), True, "coefficient 1 is True; expected an integer"),
            (("d", "alpha"), 1, "alpha is 1; expected a decimal string"),
            (("d", "alpha"), "1.0", "alpha is '1.0'; expected a decimal string"),
            (("d", "alpha"), "+1", "alpha is '\\+1'; expected a decimal string"),
            (("d", "terms", 0, "coeff"), 1.5, "coeff is 1.5; expected a decimal string"),
            (("d", "terms", 0, "coeff"), " 1", "coeff is ' 1'; expected a decimal string"),
            (("d", "terms", 0, "coeff"), "-", "coeff is '-'; expected a decimal string"),
            # a closed form the writer would never emit: not canonical, or not its shape
            (("m",), 0, "m is 0; expected an integer >= 1"),
            (("m",), -3, "m is -3; expected an integer >= 1"),
            (("d", "terms", 0, "n"), 5, "d is not canonical: shift 5 outside \\[0, 2\\)"),
            (("d", "terms", 0, "coeff"), "0", "d is not canonical: zero coefficient retained"),
            (("d", "terms", 0, "m"), 1, "d is not canonical: modulus 1 must exceed 1"),
            (("d", "terms"), [{"coeff": "1", "n": 1, "m": 2}, {"coeff": "2", "n": 1, "m": 2}],
             "d is not canonical: duplicate term \\(1, 2\\)"),
            (("d",), {"alpha": "-1"}, "d has keys \\['alpha'\\]; expected \\['alpha', 'terms'\\]"),
            (("d", "terms", 0, "shift"), 1, "d term 0 has keys"),
            (("d", "terms"), {}, "d terms is of type dict; expected a list"),
            (("d", "terms", 0), ["1", 1, 2], "d term 0 is of type list; expected a dict"),
            (("f",), 5, "f is of type int; expected a list"),
            (("x",), 1, "gcd function has keys \\['f', 'd', 'm', 'x'\\]; expected"),
            ((), [[-1, 1], "-1", 1], "gcd function is of type list; expected a dict"),
        ],
    )
    def test_gcd_function_refuses_a_number_that_is_not_an_integer(self, path, value, message):
        # int() would truncate 2.5 to 2 and read True as 1: a different function
        data = {"f": [-1, 1], "d": {"alpha": "-1", "terms": [{"coeff": "1", "n": 1, "m": 2}]},
                "m": 1}
        assert gcd_function_from_dict(data).render() == "(-1+gcd(q-1,2))*(q-1)"
        if not path:
            data = value
        else:
            *parents, last = path
            node = data
            for key in parents:
                node = node[key]
            node[last] = value
        with pytest.raises(ValueError, match=message):
            gcd_function_from_dict(data)


CORPUS_DOCUMENTS = []
for _system in CORPUS.values():
    _cf = synthesize_counting_function(_system)
    CORPUS_DOCUMENTS += [
        counting_function_to_dict(_cf),
        {"q": 7, "count": count_at(_system, 7)},
        *(gcd_function_to_dict(g) for _, g in _cf.terms),
        table_to_dict(*porc_to_residue_table(_cf)),
    ]

# past the 4300 digits Python converts by default; drawn by digit count, which is cheap
big = st.builds(lambda digits, low: 10**digits + low, st.integers(4300, 4400), st.integers())
ints = st.one_of(st.integers(), big, big.map(operator.neg))
porcs = st.builds(
    PorcExpression, ints, st.lists(st.tuples(ints, ints, ints), max_size=3).map(tuple)
)
gcd_functions = st.builds(GcdPorcFunction, st.lists(ints, max_size=4).map(IntPoly), porcs, ints)
counting_functions = st.lists(st.tuples(st.sampled_from([1, -1]), gcd_functions), max_size=3).map(
    lambda terms: CountingFunction(tuple(terms))
)


class TestJsonWriter:
    def test_corpus_documents_match_json(self):
        # synthesize, count, gcd-porc and table, for every corpus system
        assert len(CORPUS_DOCUMENTS) > 4 * len(CORPUS)
        for document in CORPUS_DOCUMENTS:
            assert dumps(document) == json.dumps(document)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="no int-to-str limit before Python 3.10.7",
    )
    @settings(max_examples=80, deadline=None)
    @given(counting_functions)
    def test_counting_functions_match_json(self, cf):
        # the CLI lifts the int-to-str limit while it writes, and so does this test
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            document = counting_function_to_dict(cf)
            assert dumps(document) == json.dumps(document)
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize(
        "value", [True, 1.5, 'a"b', "a\\b", "caf\u00e9", "\n", None, (1,), {1: 2}, {"a": [False]}]
    )
    def test_anything_else_raises_type_error(self, value):
        with pytest.raises(TypeError):
            dumps(value)
