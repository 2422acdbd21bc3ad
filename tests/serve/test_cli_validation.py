"""Usage-error paths of the serve-related CLI surfaces (exit 2,
``error:`` prefix — the repo convention)."""

import pytest

from repro.cli import main


@pytest.mark.parametrize("argv", [
    ["serve", "--workers", "0"],
    ["serve", "--max-pending", "0"],
    ["serve", "--retries", "-1"],
    ["serve", "--job-timeout", "0"],
    ["serve", "--default-weight", "0"],
    ["serve", "--weight", "alice"],          # missing =WEIGHT
    ["serve", "--weight", "alice=fast"],     # not a number
    ["serve", "--weight", "alice=-2"],       # non-positive
    ["serve", "--weight", "=2.0"],           # empty client name
])
def test_serve_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["run", "MM", "--server", "http://x", "--profile"],
    ["run", "MM", "--server", "http://x", "--trace"],
    ["run", "./missing.npz", "--server", "http://x"],
    ["bench", "--server", "http://x", "--chaos", "kill-worker:1"],
    ["bench", "--server", "http://x", "--profile"],
    ["bench", "--server", "http://x", "--resume"],
    ["bench", "--server", "http://x", "--no-cache"],
    ["bench", "--server", "http://x", "--jobs", "4"],
])
def test_server_mode_flag_conflicts(argv, capsys):
    """Local-only flags are rejected before any network traffic."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("error:")


def test_unreachable_server_is_a_clean_error(capsys):
    code = main(["run", "MM", "--scale", "0.02",
                 "--server", "http://127.0.0.1:9", "--wait-timeout", "1"])
    assert code == 3
    assert "error:" in capsys.readouterr().err
