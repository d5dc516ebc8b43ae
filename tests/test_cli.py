"""CLI surface: payload shapes, exit codes, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rademax import cli, oracle
from rademax.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# envelope
# ---------------------------------------------------------------------------

def test_envelope_universal(capsys):
    payload = run_json(capsys, "envelope", "--t", "2", "--universal")
    assert payload["command"] == "envelope"
    assert list(payload) == ["command", "inputs", "results", "version"]
    assert payload["inputs"]["t"] == "2"
    value = payload["results"]["value"]
    assert (value["num"], value["exp"]) == ("9", 8)
    assert value["decimal"] == "0.035156"
    assert payload["results"]["argmax_k"] == [8]
    assert payload["results"]["certificate"] == "zubkov_serov_closed"


def test_envelope_finite(capsys):
    payload = run_json(capsys, "envelope", "--t", "sqrt(3)", "--n", "4")
    assert payload["results"]["value"]["dyadic"] == "1/16"
    assert payload["results"]["argmax_k"] == [3, 4]


def test_envelope_finite_stops_early(capsys):
    # the tail bound closes t = 7/2 at k = 662, whatever n is
    payload = run_json(capsys, "envelope", "--t", "7/2", "--n", "1000000")
    assert payload["results"]["k_searched"] < 1000
    assert payload["results"]["argmax_k"] == [51]


def test_envelope_negative_t_is_domain_error(capsys):
    code, out, err = run(capsys, "envelope", "--t", "-1", "--universal")
    assert code == 3
    assert "error" in err


def test_envelope_past_the_digit_limit_is_domain_error(capsys):
    # the value at t = 100, n = 20000 is num/2^19985, whose denominator has
    # 6,017 digits: more than the interpreter converts to text by default
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if not limit or limit >= 6017:
        pytest.skip("needs an int-to-str digit limit below 6,017 digits")
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, "envelope", "--t", "100", "--n", "20000", "--format", fmt)
        assert (code, out) == (3, "")
        assert err == (f"error: the result has more than {limit} decimal digits, the "
                       "interpreter's int-to-str limit (sys.set_int_max_str_digits)\n")


def test_envelope_bad_grammar_is_parse_error(capsys):
    code, _, _ = run(capsys, "envelope", "--t", "sqrt(x)", "--universal")
    assert code == 2


def test_envelope_requires_mode(capsys):
    code, _, _ = run(capsys, "envelope", "--t", "2")
    assert code == 2


# ---------------------------------------------------------------------------
# quantile
# ---------------------------------------------------------------------------

def test_quantile_universal(capsys):
    payload = run_json(capsys, "quantile", "--alpha", "1/20", "--universal")
    assert payload["results"]["t_star"] == "2"
    payload = run_json(capsys, "quantile", "--alpha", "1/40", "--universal")
    assert payload["results"]["t_star"] == "sqrt(5)"
    assert payload["results"]["value_at"]["dyadic"] == "5/256"


def test_quantile_decimal_alpha(capsys):
    payload = run_json(capsys, "quantile", "--alpha", "0.05", "--universal")
    assert payload["inputs"]["alpha"] == "1/20"
    assert payload["results"]["t_star"] == "2"


def test_quantile_alpha_out_of_range(capsys):
    code, _, _ = run(capsys, "quantile", "--alpha", "3/4", "--universal")
    assert code == 3


# ---------------------------------------------------------------------------
# table / compare
# ---------------------------------------------------------------------------

def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "--ns", "10", "--alphas", "0.05")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,alpha,s_crit,t_crit"
    assert lines[1] == "10,1/20,2,2.449490"


def test_table_pole(capsys):
    code, out, _ = run(capsys, "table", "--ns", "1", "--alphas", "0.25")
    assert code == 0
    assert "1,1/4,1,unattainable" in out


def test_table_bad_n(capsys):
    code, _, _ = run(capsys, "table", "--ns", "0", "--alphas", "0.05")
    assert code == 3


def test_one_bad_cell_fails_the_whole_table(capsys):
    # n = 10 alone prints a row, but n = 2 has no alpha = 1/20 quantile:
    # the table prints no row at all and exits 3
    code, out, err = run(capsys, "table", "--ns", "2,10", "--alphas", "0.05")
    assert code == 3
    assert out == ""
    assert err.startswith("error: alpha below 2^-3")
    assert err.count("\n") == 1


def test_table_non_integer_n_is_parse_error(capsys):
    code, out, err = run(capsys, "table", "--ns", "1,x", "--alphas", "0.05")
    assert code == 2
    assert out == ""
    assert err == "error: bad integer 'x'\n"


def test_closed_stdout_pipe_exits_quietly():
    # the read end is closed before the child starts, so its first write
    # meets a broken pipe
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(cli.__file__).resolve().parents[1])]
        + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "rademax", "envelope", "--t", "2", "--universal"],
            stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err


def test_compare_default_grid(capsys):
    code, out, _ = run(capsys, "compare")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 8  # header + 7 default-grid thresholds
    assert lines[4].startswith("2,8,9/256=0.035156,")


def test_compare_single_row(capsys):
    code, out, _ = run(capsys, "compare", "--t-grid", "2")
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_compare_empty_grid(capsys):
    code, _, _ = run(capsys, "compare", "--t-grid", "")
    assert code == 2


# ---------------------------------------------------------------------------
# oracle / lemma-check / figure-data
# ---------------------------------------------------------------------------

def test_oracle_mid_tail(capsys):
    payload = run_json(capsys, "oracle", "--weights", "3,4", "--t", "1")
    assert payload["results"]["mid_tail"]["dyadic"] == "1/4"
    payload = run_json(capsys, "oracle", "--weights", "1,1,1,1", "--t", "2")
    assert payload["results"]["mid_tail"]["dyadic"] == "1/32"


def test_oracle_quantile_mode(capsys):
    payload = run_json(capsys, "oracle", "--weights", "1,1", "--alpha", "1/4")
    assert payload["results"]["t_star"] == "sqrt(2)"


def test_oracle_zero_weights(capsys):
    code, _, _ = run(capsys, "oracle", "--weights", "0,0", "--t", "1")
    assert code == 3


def test_lemma_check_explicit(capsys):
    payload = run_json(capsys, "lemma-check", "--weights", "3,4", "--x", "7/5")
    report = payload["results"]["report"]
    assert report["verdict"] is True
    assert report["pair"] == [2, 1]


def test_lemma_check_not_applicable(capsys):
    payload = run_json(capsys, "lemma-check", "--weights", "1,1", "--x", "2")
    report = payload["results"]["report"]
    assert report["applicable"] is False and report["verdict"] is False


def test_lemma_check_random_mode(capsys):
    payload = run_json(capsys, "lemma-check", "--n", "6", "--trials", "25", "--seed", "42")
    assert payload["results"]["failures"] == 0
    assert payload["results"]["ok"] is True


@pytest.mark.parametrize("n, trials, message", [
    (25, 1, "n=25 exceeds the brute-force guard (24 coordinates)"),
    (10**9, 1, "n=1000000000 exceeds the brute-force guard (24 coordinates)"),
    (6, 0, "trials must be >= 1"),
    (6, -3, "trials must be >= 1"),
])
def test_lemma_check_random_mode_fails_fast(capsys, monkeypatch, n, trials, message):
    class NoDraws:
        def __init__(self, seed):
            raise AssertionError("weights were drawn before the input checks")

    monkeypatch.setattr(oracle, "Lcg", NoDraws)
    code, out, err = run(capsys, "lemma-check", "--n", str(n), "--trials", str(trials),
                         "--seed", "1")
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_lemma_check_random_mode_at_the_size_guard(capsys):
    payload = run_json(capsys, "lemma-check", "--n", "24", "--trials", "1", "--seed", "3")
    assert payload["results"]["checked"] == 1
    assert payload["results"]["ok"] is True


def test_figure_data(capsys):
    code, out, _ = run(capsys, "figure-data", "--which", "kstar")
    assert code == 0
    assert "3,28" in out
    code, out, _ = run(capsys, "figure-data", "--which", "envelope")
    assert "2,0.03515625" in out


def test_figure_data_bogus(capsys):
    code, _, _ = run(capsys, "figure-data", "--which", "bogus")
    assert code == 2


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_repeat_invocations_identical(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "envelope", "--t", "sqrt(5)", "--universal")
        outs.add(out)
    assert len(outs) == 1


def test_threads_flag_does_not_change_output(capsys):
    outs = {run(capsys, "quantile", "--alpha", "1/20", "--universal",
                "--threads", str(n))[1] for n in (1, 2, 8)}
    assert len(outs) == 1


def test_every_exact_value_has_both_forms(capsys):
    payload = run_json(capsys, "envelope", "--t", "2", "--universal")
    value = payload["results"]["value"]
    assert set(value) == {"num", "exp", "dyadic", "decimal"}


# ---------------------------------------------------------------------------
# the README's commands
# ---------------------------------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_block_runs_and_its_claims_hold(capsys):
    # every command of the CLI block exits 0, and the values its comments
    # claim ("V, argmax [K,..]" and "t* = T") are what it prints
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1]
    checked = set()
    for line in block.split("\n```", 1)[0].splitlines():
        command, _, comment = line.partition("#")
        prog, *argv = shlex.split(command)
        assert prog == "rademax", line
        code, out, err = run(capsys, *argv)
        assert code == 0, (line, err)
        envelope = re.search(r"(\d+/\d+), argmax \[([\d,]+)\]", comment)
        if envelope:
            results = json.loads(out)["results"]
            assert results["value"]["dyadic"] == envelope[1], line
            assert results["argmax_k"] == [int(k) for k in envelope[2].split(",")], line
            checked.add(" ".join(argv))
        quantile = re.search(r"t\* = ([^\s:,;]+)", comment)
        if quantile:
            assert json.loads(out)["results"]["t_star"] == quantile[1], line
            checked.add(" ".join(argv))
    assert {"envelope --t 2 --universal", "envelope --t sqrt(3) --n 4",
            "quantile --alpha 1/20 --universal"} <= checked


def test_readme_early_stop_claim_holds(capsys):
    # the truncation section's "`envelope ...` stops at `k = K`"
    claim = re.search(r"`(envelope [^`]+)` stops at `k = (\d+)`", README.read_text())
    payload = run_json(capsys, *shlex.split(claim[1]))
    assert claim[1] == "envelope --t 7/2 --n 1000000"
    assert payload["results"]["k_searched"] == int(claim[2]) == 661


# ---------------------------------------------------------------------------
# golden stdout
# ---------------------------------------------------------------------------

GOLDEN_QUANTILE_1_100 = """\
{
  "command": "quantile",
  "inputs": {
    "alpha": "1/100",
    "mode": "universal",
    "n": null,
    "k_cap": 4096
  },
  "results": {
    "t_star": "sqrt(32/5)",
    "t_star_float": 2.5298221281347035,
    "value_at": {
      "num": "35443",
      "exp": 22,
      "dyadic": "35443/4194304",
      "decimal": "0.008450"
    },
    "left_limit": {
      "num": "11",
      "exp": 10,
      "dyadic": "11/1024",
      "decimal": "0.010742"
    },
    "witness_k_left": 10,
    "capped": false
  },
  "version": "0.1.0"
}
"""

GOLDEN_COMPARE = """\
t,k_star,exact,hoeffding,ratio,gaussian
1,1,1/4=0.250000,0.606531,0.412180,0.158655
3/2,3,1/8=0.125000,0.324652,0.385027,0.066807
sqrt(3),3,1/16=0.062500,0.223130,0.280106,0.041632
2,8,9/256=0.035156,0.135335,0.259772,0.022750
sqrt(5),9,5/256=0.019531,0.082085,0.237939,0.012674
sqrt(6),13,23/2048=0.011230,0.049787,0.225570,0.007153
3,28,249589/134217728=0.001860,0.011109,0.167394,0.001350
"""

GOLDEN_QUANTILE_N6 = """\
{
  "command": "quantile",
  "inputs": {
    "alpha": "1/20",
    "mode": "finite",
    "n": 6,
    "k_cap": 4096
  },
  "results": {
    "t_star": "2",
    "t_star_float": 2.0,
    "value_at": {
      "num": "1",
      "exp": 5,
      "dyadic": "1/32",
      "decimal": "0.031250"
    },
    "left_limit": {
      "num": "1",
      "exp": 4,
      "dyadic": "1/16",
      "decimal": "0.062500"
    },
    "witness_k_left": 4,
    "capped": false
  },
  "version": "0.1.0"
}
"""

GOLDEN_TABLE = """\
n,alpha,s_crit,t_crit
5,1/20,2,4.000000
5,1/40,sqrt(5),unattainable
10,1/20,2,2.449490
10,1/40,sqrt(5),3.000000
20,1/20,2,2.179449
20,1/40,sqrt(5),2.516611
"""

GOLDEN_ORACLE_T = """\
{
  "command": "oracle",
  "inputs": {
    "weights": [
      "3",
      "4"
    ],
    "t": "1"
  },
  "results": {
    "mid_tail": {
      "num": "1",
      "exp": 2,
      "dyadic": "1/4",
      "decimal": "0.250000"
    },
    "atom_count": 4
  },
  "version": "0.1.0"
}
"""

GOLDEN_ORACLE_ALPHA = """\
{
  "command": "oracle",
  "inputs": {
    "weights": [
      "1",
      "2",
      "2"
    ],
    "alpha": "1/4"
  },
  "results": {
    "t_star": "1",
    "t_star_float": 1.0,
    "atom_count": 6
  },
  "version": "0.1.0"
}
"""

GOLDEN_LEMMA_ATOM = """\
{
  "command": "lemma-check",
  "inputs": {
    "weights": [
      "3",
      "4"
    ],
    "x": "7/5"
  },
  "results": {
    "report": {
      "applicable": true,
      "x": "7/5",
      "verdict": true,
      "normalized_verdict": true,
      "fiber_size": 1,
      "pair": [
        2,
        1
      ],
      "direction": "-theta",
      "n_pos": 1,
      "n_neg": 0,
      "n_zero": 0,
      "upper_median_slope": "1/5",
      "slopes": [
        [
          "1/5",
          1
        ]
      ],
      "all_pairs": [
        {
          "pair": [
            2,
            1
          ],
          "direction": "-theta",
          "n_pos": 1,
          "n_neg": 0,
          "n_zero": 0,
          "upper_median_slope": "1/5",
          "verdict": true,
          "normalized_median": "1/5",
          "normalized_verdict": true
        }
      ]
    }
  },
  "version": "0.1.0"
}
"""

GOLDEN_LEMMA_RANDOM = """\
{
  "command": "lemma-check",
  "inputs": {
    "n": 6,
    "trials": 5,
    "seed": 42
  },
  "results": {
    "checked": 5,
    "failures": 0,
    "failed_instances": [],
    "normalized_direction_failures": 0,
    "normalized_failure_instances": [],
    "ok": true
  },
  "version": "0.1.0"
}
"""


GOLDEN_ENVELOPE_CSV = """\
t,value_dyadic,value_decimal,argmax_k,k_searched,certificate
sqrt(3),1/16,0.062500,3;4,4,zubkov_serov_closed
"""

GOLDEN_TABLE_JSON = """\
{
  "command": "table",
  "inputs": {
    "ns": [
      5,
      10
    ],
    "alphas": [
      "1/20"
    ]
  },
  "results": {
    "rows": [
      {
        "n": 5,
        "alpha": "1/20",
        "s_crit": "2",
        "t_crit": 4.0,
        "value_at": {
          "num": "1",
          "exp": 5,
          "dyadic": "1/32",
          "decimal": "0.031250"
        },
        "left_limit": {
          "num": "1",
          "exp": 4,
          "dyadic": "1/16",
          "decimal": "0.062500"
        }
      },
      {
        "n": 10,
        "alpha": "1/20",
        "s_crit": "2",
        "t_crit": 2.449489742783178,
        "value_at": {
          "num": "9",
          "exp": 8,
          "dyadic": "9/256",
          "decimal": "0.035156"
        },
        "left_limit": {
          "num": "1",
          "exp": 4,
          "dyadic": "1/16",
          "decimal": "0.062500"
        }
      }
    ]
  },
  "version": "0.1.0"
}
"""

# The gaussian column is math.erfc's; the local erfc it replaced printed
# 0.15865525393145713 and 0.012673659338734267 (mpmath: ...7051..., ...1319...).
GOLDEN_COMPARE_JSON = """\
{
  "command": "compare",
  "inputs": {
    "t_grid": [
      "1",
      "sqrt(5)"
    ],
    "k_cap": 4096
  },
  "results": {
    "rows": [
      {
        "t": "1",
        "k_star": 1,
        "exact": {
          "num": "1",
          "exp": 2,
          "dyadic": "1/4",
          "decimal": "0.250000"
        },
        "hoeffding": 0.6065306597126334,
        "ratio": 0.41218031767503205,
        "gaussian": 0.15865525393145707
      },
      {
        "t": "sqrt(5)",
        "k_star": 9,
        "exact": {
          "num": "5",
          "exp": 8,
          "dyadic": "5/256",
          "decimal": "0.019531"
        },
        "hoeffding": 0.08208499862389876,
        "ratio": 0.23793933516998983,
        "gaussian": 0.012673659338734137
      }
    ]
  },
  "version": "0.1.0"
}
"""

# At t = 40 the envelope is capped at k = 4096, and exp(-t^2/2) and the
# normal tail underflow to 0.0; the ratio comes from logarithms.
_T40_NUM = (
    "35403184185366671935841819502668279653585935665579617501826221102621"
    "50043580506470573272352219554476919598519459315771976499665181872197"
    "76126231884166776120194731737831149757536593005383077401018782763604"
    "45714716859474436116703594109310252108852246450627751813833170035634"
    "25920357443347035870174180781957072717434250748750943551961007696352"
    "48579225469710216433827380117175772534744743105334902443123892950448"
    "12088637828282236602589210206981092055218120756048697289291759191680"
    "62865301050238746432162339474674213303610530087148945006668717229237"
    "80195928574588821123711411861147511701219612402463102009404422231971"
    "65204246999251397974024450907991371744889564725954113658606514781028"
    "77490748724069001287865284642342947662123616846323926559503378221648"
    "32485839518138764914647673416501853939935411523596003307942645160703"
    "65631783620811541922183730238194342950705"
)
_T40_DYADIC = f"{_T40_NUM}/{2 ** 4096}"

GOLDEN_COMPARE_T40_CSV = f"""\
t,k_star,exact,hoeffding,ratio,gaussian
40,4096,{_T40_DYADIC}=0.000000,0.000000,0.000000,0.000000
"""

GOLDEN_COMPARE_T40_JSON = f"""\
{{
  "command": "compare",
  "inputs": {{
    "t_grid": [
      "40"
    ],
    "k_cap": 4096
  }},
  "results": {{
    "rows": [
      {{
        "t": "40",
        "k_star": 4096,
        "exact": {{
          "num": "{_T40_NUM}",
          "exp": 4096,
          "dyadic": "{_T40_DYADIC}",
          "decimal": "0.000000"
        }},
        "hoeffding": 0.0,
        "ratio": 9.241992408441269e-30,
        "gaussian": 0.0
      }}
    ]
  }},
  "version": "0.1.0"
}}
"""

# At t = 37 the envelope value's float is subnormal, and at t = 37.5 it is
# 0.0, while the bound is still a normal float; the ratio comes from
# logarithms, not from the value's float.
_T37_NUM = (
    "3776244436526740074112048782385995380239008076793301917404140719458026"
    "0663200057295944589434747211679145528382498823386969906178183436866927"
    "6484436296787061132446311085583900643308353325024991139240154376890647"
    "7482787130158317296857415749290839167790950676502059435469577177362780"
    "3566091814787047485430010263839195391902422151294986204281214310571174"
    "1941647830700586198302532602255643942446324029705201534592395414521257"
    "6091487732707940959858545141146925896733498893187168595256951599323618"
    "0290681063917301987471804969563329028916783886709517819644444412631783"
    "4660341886677633201438191697417649263128731432062199472979481941749164"
    "8361745304563636474970260147658666416042994631768403380131033710461405"
    "6090850530196143166544904574230933076146298439065262465368843120883191"
    "7764165201136821158267276930175516772271884317424938065568352013425526"
    "2524763975601827809058950046445294561873783324008557530026551943705721"
)
_T37_5_NUM = (
    "4043900418771041983777144359511517847736377796519671220722785820936368"
    "0234927693020329620708295591228537634278231665871586439011832136252476"
    "6841889833922174810366156227220989266385009102749962479184233988964452"
    "3366926172894180047058510692326570044156327557218166710311689729250079"
    "5270590001903203581606083644089907412953954970171663084063808773816182"
    "9363576762776937279194549955717220097430447399846621406293003090779519"
    "7140690461593213542055536093998718457977063776362179396330956715331810"
    "4693101396881156779338297313762784556249667338020802117157030376685972"
    "2647457855040453630991433059116145279578496668788016268718848743373600"
    "4742907776541684989677787285168549816545832996052717792851671841250231"
    "0161823706574814134883165598267961160817010387084283618874273075134412"
    "8393310379010839338833511056892230199803504485104521337958486856571000"
    "4935732823222619853696346811131658727877214275599059740472337"
)
_T37_DYADIC = f"{_T37_NUM}/{2 ** 4079}"
_T37_5_DYADIC = f"{_T37_5_NUM}/{2 ** 4080}"

GOLDEN_COMPARE_T37_JSON = f"""\
{{
  "command": "compare",
  "inputs": {{
    "t_grid": [
      "37",
      "75/2"
    ],
    "k_cap": 4096
  }},
  "results": {{
    "rows": [
      {{
        "t": "37",
        "k_star": 4082,
        "exact": {{
          "num": "{_T37_NUM}",
          "exp": 4079,
          "dyadic": "{_T37_DYADIC}",
          "decimal": "0.000000"
        }},
        "hoeffding": 5.314068364454539e-298,
        "ratio": 8.918270644648502e-22,
        "gaussian": 5.725571222525139e-300
      }},
      {{
        "t": "75/2",
        "k_star": 4082,
        "exact": {{
          "num": "{_T37_5_NUM}",
          "exp": 4080,
          "dyadic": "{_T37_5_DYADIC}",
          "decimal": "0.000000"
        }},
        "hoeffding": 4.332039538514401e-306,
        "ratio": 5.857681198382695e-23,
        "gaussian": 4.605353009582584e-308
      }}
    ]
  }},
  "version": "0.1.0"
}}
"""


@pytest.mark.parametrize("argv, expected", [
    (("envelope", "--t", "sqrt(3)", "--n", "4", "--format", "csv"), GOLDEN_ENVELOPE_CSV),
    (("table", "--ns", "5,10", "--alphas", "0.05", "--format", "json"), GOLDEN_TABLE_JSON),
    (("compare", "--t-grid", "1,sqrt(5)", "--format", "json"), GOLDEN_COMPARE_JSON),
    (("compare", "--t-grid", "40"), GOLDEN_COMPARE_T40_CSV),
    (("compare", "--t-grid", "40", "--format", "json"), GOLDEN_COMPARE_T40_JSON),
    (("compare", "--t-grid", "37,37.5", "--format", "json"), GOLDEN_COMPARE_T37_JSON),
], ids=["envelope-csv", "table-json", "compare-json", "compare-t40-csv", "compare-t40-json",
        "compare-t37-json"])
def test_golden_format_branches(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == expected


@pytest.mark.parametrize("argv, expected", [
    (("quantile", "--alpha", "1/100", "--universal"), GOLDEN_QUANTILE_1_100),
    (("quantile", "--alpha", "0.05", "--n", "6"), GOLDEN_QUANTILE_N6),
    (("table", "--ns", "5,10,20", "--alphas", "0.05,0.025"), GOLDEN_TABLE),
    (("oracle", "--weights", "3,4", "--t", "1"), GOLDEN_ORACLE_T),
    (("oracle", "--weights", "1,2,2", "--alpha", "1/4"), GOLDEN_ORACLE_ALPHA),
    (("lemma-check", "--weights", "3,4", "--x", "7/5"), GOLDEN_LEMMA_ATOM),
    (("lemma-check", "--n", "6", "--trials", "5", "--seed", "42"), GOLDEN_LEMMA_RANDOM),
    (("compare",), GOLDEN_COMPARE),
])
def test_golden_stdout(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == expected
