"""The same-bytes command's list covers the program: every command, every
objective, both samplers, and ica sign counts both even and odd.

``python tests/parity.py`` runs the commands themselves; this only checks
the list and the comparison rules.
"""

from parity import COMMANDS, comparable, differences

from strictsaddle import cli


def configs():
    """(command, validated ExperimentConfig) of each listed command."""
    for _, argv in COMMANDS:
        args = cli.make_parser().parse_args(argv)
        yield args.command, cli.build_config(args)


def test_names_are_distinct():
    assert len({name for name, _ in COMMANDS}) == len(COMMANDS)


def test_list_covers_every_command_objective_and_sampler():
    runs = list(configs())
    assert {command for command, _ in runs} == set(cli.COMMANDS)
    # escape builds maxeig and ica correlation whatever the flags say
    assert {c.objective for command, c in runs if command == "decompose"} == set(cli.OBJECTIVES)
    assert {c.sampler for command, c in runs if command == "decompose"} == set(cli.SAMPLERS)
    counts = {c.batch * c.d for command, c in runs if command == "ica" or (command == "decompose"
                                                                          and c.sampler == "ica")}
    assert {count % 2 for count in counts} == {0, 1}


def test_comparison_ignores_only_what_varies():
    csv = "iter,f,elapsed_ms\n0,1.5,0.125\n"
    assert comparable("seed0.csv", csv) == comparable("seed0.csv", csv.replace("0.125", "9.000"))
    assert comparable("seed0.csv", csv) != comparable("seed0.csv", csv.replace("1.5", "1.5000000000000002"))
    manifest = '{"command": "escape", "started": "a", "finished": "b", "environment": {"cpu_count": 2}}'
    assert comparable("manifest.json", manifest) == comparable(
        "manifest.json", manifest.replace('"a"', '"c"').replace("2}", "4}"))
    assert comparable("manifest.json", manifest) != comparable("manifest.json", manifest.replace("escape", "ica"))
    run = (0, "escaped\n", {"escape.csv": "x", "manifest.json": "y"})
    assert differences(run, run) == []
    assert differences(run, (1, "escaped 1\n", {"escape.csv": "z"})) == ["exit 0 vs 1", "stdout", "escape.csv",
                                                                           "manifest.json"]
