from __future__ import annotations

import shlex
import textwrap
import time

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_cache(tmp_path_factory):
    """Build the fork server's shim and keep its verdicts in a cache
    directory of this session's, not the user's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


def dead(pid: int, within: float = 2.0) -> bool:
    """Whether ``pid`` is gone or a zombie within ``within`` seconds:
    an orphan killed here may wait for a reaper that never comes."""
    give_up = time.monotonic() + within
    while True:
        try:
            with open(f"/proc/{pid}/stat") as fh:
                if fh.read().rsplit(")", 1)[1].split()[0] == "Z":
                    return True
        except FileNotFoundError:
            return True
        if time.monotonic() > give_up:
            return False
        time.sleep(0.02)


# fake compiler scripts; each treats its last argument as the source
# file so default flags can ride along untouched

OK_BODY = """
exit 0
"""

ARTIFACT_BODY = """
touch out.o
exit 0
"""

ERROR_BODY = """
echo "error[E0308]: mismatched types" >&2
exit 1
"""

ICE_BODY = """
cat >&2 <<'EOF'
error: internal compiler error: broken MIR in DefId(0:3 ~ demo[717c]::main)
thread 'rustc' panicked at compiler/rustc_errors/src/lib.rs:987:10:
Box<dyn Any>
stack backtrace:
   0: std::panicking::begin_panic::h1111111111111111
   1: rustc_middle::ty::relate::super_relate_tys::h2222222222222222
   2: rustc_hir_typeck::check::check_fn::h3333333333333333
EOF
exit 101
"""

MRUSTC_ICE_BODY = """
echo "BUG: ./src/hir_typeck/expr_cs.cpp:1234: Spare rule - ty l=..." >&2
echo "Aborted (core dumped)" >&2
exit 134
"""

SLEEPER_BODY = """
sleep 30
exit 0
"""

TRIGGER_BODY = """
for a in "$@"; do src="$a"; done
if grep -q "0xBUG" "$src"; then
  cat >&2 <<'EOF'
error: internal compiler error: seeded failure
thread 'rustc' panicked at compiler/rustc_demo/src/lib.rs:1:1:
seeded
stack backtrace:
   0: seeded::frame_one::h0000000000000000
   1: seeded::frame_two::h0000000000000001
EOF
  exit 101
fi
if grep -q "SLOWMARK" "$src"; then
  sleep 30
fi
if grep -q "ERRMARK" "$src"; then
  echo "error[E0999]: rejected on purpose" >&2
  exit 1
fi
exit 0
"""

TIMEPASS_HANG_BODY = """
echo "time:   0.001; rss: 50MB -> 51MB (   +1MB)  parse_crate" >&2
echo "time:   0.002   expand_crate" >&2
echo "time:   0.003   type_check" >&2
sleep 30
exit 0
"""


@pytest.fixture
def scripted(tmp_path):
    """Factory writing fake compiler executables into tmp_path."""

    def make(name: str, body: str) -> str:
        path = tmp_path / name
        path.write_text("#!/bin/sh\n" + textwrap.dedent(body).lstrip("\n"))
        path.chmod(0o755)
        return str(path)

    return make


@pytest.fixture
def rustup_layout(tmp_path):
    """Factory for a fake rustup install under tmp_path.

    ``bin/rustup`` is a script and ``bin/<name>`` a symlink to it, as
    rustup installs its proxies; ``toolchain/bin/<name>`` runs ``body``.
    Every process appends one line to the returned log: ``rustup which
    ARGS`` logs ``probe CWD which ARGS``, any proxy run ``proxy ARGS``,
    and the toolchain binary ``$0 ARGS``. ``which`` prints ``prints``
    (by default the toolchain binary's absolute path) and exits
    ``probe_exit``; ``toolchain_rustc=False`` leaves the toolchain
    without ``bin/<name>``. Returns ``(proxy path, log path, toolchain
    binary path)``.
    """

    def make(
        body=OK_BODY, probe_exit=0, toolchain_rustc=True, name="rustc", prints=None
    ):
        log = tmp_path / "calls.log"
        sysroot = tmp_path / "toolchain"
        (sysroot / "bin").mkdir(parents=True)
        rustc = sysroot / "bin" / name
        if toolchain_rustc:
            rustc.write_text(
                f'#!/bin/sh\necho "$0 $*" >> "{log}"\n'
                + textwrap.dedent(body).lstrip("\n")
            )
            rustc.chmod(0o755)
        bindir = tmp_path / "bin"
        bindir.mkdir()
        rustup = bindir / "rustup"
        rustup.write_text(
            "#!/bin/sh\n"
            'if [ "${0##*/} $1" = "rustup which" ]; then\n'
            f'    echo "probe $(pwd) $*" >> "{log}"\n'
            f"    echo {shlex.quote(str(rustc) if prints is None else prints)}\n"
            f"    exit {probe_exit}\n"
            "fi\n"
            f'echo "proxy $*" >> "{log}"\n'
            "exit 0\n"
        )
        rustup.chmod(0o755)
        (bindir / name).symlink_to("rustup")
        return str(bindir / name), log, str(rustc)

    return make


# --- acceptance summary: one pass/fail line per criterion ---------------------

_acceptance_results: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if report.when == "call":
        _acceptance_results[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup":
        if report.skipped:
            _acceptance_results[name] = "SKIP"
        elif report.failed:
            _acceptance_results[name] = "FAIL"


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_acceptance_results):
        terminalreporter.write_line(f"{name}: {_acceptance_results[name]}")
