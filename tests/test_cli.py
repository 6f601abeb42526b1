"""Command-line surface: output goldens, exit codes, JSON round trips."""

import json
from fractions import Fraction

import pytest

from porcfield import (
    PorcExpression,
    parse_system,
    synthesize_counting_function,
    synthesize_gcd_function,
)
from porcfield.cli import main
from porcfield.jsonio import (
    counting_function_from_dict,
    counting_function_to_dict,
    gcd_function_from_dict,
    gcd_function_to_dict,
)
from porcfield.polynomial import parse_poly

from conftest import QUADRATIC_TEXT


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "quadratic.mono"
    path.write_text(QUADRATIC_TEXT)
    return str(path)


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


class TestCount:
    def test_text(self, system_file, capsys):
        assert main(["count", system_file, "--q", "3"]) == 0
        assert capsys.readouterr().out.strip() == "12"

    def test_json(self, system_file, capsys):
        assert main(["count", system_file, "--q", "5", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"q": 5, "count": 40}


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

    def test_bad_polynomial_exits_1(self, capsys):
        assert main(["gcd-porc", "--text", "x^"]) == 1
        assert "error" in capsys.readouterr().err

    def test_empty_input_exits_1(self, capsys):
        assert main(["gcd-porc", "--text", "  \n# nothing\n"]) == 1


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

    def test_whole_corpus_verifies(self, tmp_path, capsys):
        from conftest import CORPUS_TEXTS

        for name, text in CORPUS_TEXTS.items():
            path = tmp_path / f"{name}.mono"
            path.write_text(text)
            assert main(["verify", str(path)]) == 0, name
            capsys.readouterr()

    def test_mismatch_exits_3(self, system_file, capsys, monkeypatch):
        import porcfield.cli as cli_mod

        monkeypatch.setattr(cli_mod, "count_at", lambda *a, **kw: 1)
        assert main(["verify", system_file, "--q-range", "3:3"]) == 3
        out = capsys.readouterr()
        assert "MISMATCH" in out.out

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

    def test_porc_size_cap_is_2(self, capsys):
        assert main(["gcd-porc", "--text", "x\n10007"]) == 2
        assert "ZERO_SHIFT_CAP" in capsys.readouterr().err

    def test_invariant_failure_is_3(self, capsys, monkeypatch):
        import porcfield.porc as porc_mod

        # a canonicalization that keeps a zero shift breaks the invariants
        broken = PorcExpression(Fraction(0), ((Fraction(1), 0, 2),))
        monkeypatch.setattr(porc_mod, "_canonicalize", lambda alpha, raw: broken)
        assert main(["gcd-porc", "--text", "x^2+x\nx^2-x"]) == 3
        assert "internal consistency error: shift 0 outside (0, 2)" in capsys.readouterr().err

    def test_missing_input_is_1(self, capsys):
        assert main(["count", "--q", "3"]) == 1

    def test_missing_file_is_1(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["count", "/nonexistent/path.mono", "--q", "3"])
        assert info.value.code == 1

    def test_usage_error_is_1(self):
        with pytest.raises(SystemExit) as info:
            main(["count", "--q", "not-a-number"])
        assert info.value.code == 1


class TestJsonRoundTrips:
    def test_gcd_function(self):
        g = synthesize_gcd_function([parse_poly("x^2+x"), parse_poly("x^2-x")])
        assert gcd_function_from_dict(gcd_function_to_dict(g)) == g

    def test_counting_function(self, corpus):
        for system in corpus.values():
            cf = synthesize_counting_function(system)
            data = json.loads(json.dumps(counting_function_to_dict(cf)))
            assert counting_function_from_dict(data) == cf
